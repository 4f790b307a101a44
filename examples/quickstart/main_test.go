package main

// Example pins the program's output: every number it prints is simulated, so
// the same source prints the same bytes.
func Example() {
	main()
	// Output:
	// read back: "hello, memory-mapped storage"
	// major faults:   4096
	// wp faults:      0 (dirty tracking)
	// written back:   1 pages
	// simulated time: 6467.34 us at 2.4 GHz
	//
	// fault-path cycle breakdown:
	//   vspace                              295 cycles/op    7.8%
	//   exception                          1002 cycles/op   26.5%
	//   cache-lookup                        250 cycles/op    6.6%
	//   cache-insert                        280 cycles/op    7.4%
	//   alloc                               125 cycles/op    3.3%
	//   lru                                  70 cycles/op    1.9%
	//   device-io                          1200 cycles/op   31.7%
	//   dirty-track                           0 cycles/op    0.0%
	//   map-pte                              60 cycles/op    1.6%
	//   accounting                          500 cycles/op   13.2%
	//   msync                                 0 cycles/op    0.0%
	//   writeback                             0 cycles/op    0.0%
	//   tlb-shootdown                         1 cycles/op    0.0%
	//   TOTAL                              3783 cycles/op
}
