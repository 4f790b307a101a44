package main

// Example pins the program's output: every number it prints is simulated, so
// the same source prints the same bytes.
func Example() {
	main()
	// Output:
	// consumer observed 64/64 records through the shared page cache
	// file faulted once per page in total: 2 major faults
	// simulated time: 358.77 us
}
