package main

// Example pins the program's output: every number it prints is simulated, so
// the same source prints the same bytes.
func Example() {
	main()
	// Output:
	// read/write + cache        628.0 Kops/s  (4 threads, YCSB-C, 1 KB values)
	// Linux mmap                708.7 Kops/s  (4 threads, YCSB-C, 1 KB values)
	// Aquila mmio               700.2 Kops/s  (4 threads, YCSB-C, 1 KB values)
}
