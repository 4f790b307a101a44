// Package clockuser is the detrand golden: wall-clock reads and global
// (unseeded) math/rand calls are forbidden in deterministic packages; a
// seeded *rand.Rand threaded from the engine is the sanctioned source.
package clockuser

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()          // want "time.Now in deterministic package"
	elapsed := time.Since(start) // want "time.Since in deterministic package"
	time.Sleep(elapsed)          // Sleep blocks but reads no clock: not flagged
	return 2 * time.Second       // durations themselves are fine
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want "global rand.Shuffle"
	return rand.Intn(100)              // want "global rand.Intn"
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructors are the sanctioned path
	return r.Intn(100)                  // method on a seeded *rand.Rand: fine
}

// notMaporder: the one directive is maporder's and hides nothing else.
func notMaporder() int64 {
	//aqlint:sorted -- host-side timestamp for a log line, never enters simulated state
	return time.Now().UnixNano() // want "time.Now in deterministic package"
}
