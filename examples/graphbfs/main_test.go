package main

// Example pins the program's output: every number it prints is simulated, so
// the same source prints the same bytes.
func Example() {
	main()
	// Output:
	// Linux mmap   BFS:   2.35 ms  (5 rounds, 11453 vertices reached, 22.7x DRAM-only)
	// Aquila       BFS:   1.60 ms  (5 rounds, 11453 vertices reached, 15.4x DRAM-only)
	// DRAM-only    BFS:   0.10 ms  (5 rounds, 11453 vertices reached)
}
