package main

// Example pins the program's output: every number it prints is simulated, so
// the same source prints the same bytes.
func Example() {
	main()
	// Output:
	// major faults with default LRU:          7980
	// major faults with scan-resistant policy: 4621
	// custom policy avoided 42.1% of the faults
}
