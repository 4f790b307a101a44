package core

import (
	"fmt"
	"strings"
	"testing"

	"aquila/internal/sim/engine"
)

// TestWatermarkBoundsCheck covers the validation of explicitly configured
// eviction watermarks (Low < High <= capacity): the check itself, then the
// runtime running it at boot and on a resize.
func TestWatermarkBoundsCheck(t *testing.T) {
	const capacity = 1024
	cases := []struct {
		name      string
		low, high int
		wantErr   bool
	}{
		{"both-derived", 0, 0, false},
		{"valid", 64, 256, false},
		{"low-only", 64, 0, false},
		{"high-only", 0, 256, false},
		{"low-at-capacity", capacity, 0, false},
		{"inverted", 256, 64, true},
		{"equal", 128, 128, true},
		{"low-negative", -1, 0, true},
		{"high-negative", 0, -5, true},
		{"low-over-capacity", capacity + 1, 0, true},
		{"high-over-capacity", 0, capacity + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.LowWatermark, p.HighWatermark = tc.low, tc.high
			err := checkWatermarkBounds(p, capacity)
			if (err != nil) != tc.wantErr {
				t.Errorf("checkWatermarkBounds(low=%d, high=%d) = %v, wantErr=%v",
					tc.low, tc.high, err, tc.wantErr)
			}
		})
	}

	// The runtime half: boot an AsyncEvict world with the explicit pair, run
	// then (if any), and expect the check's panic on the way.
	badWatermarks := func(t *testing.T, low, high int, then func(p *engine.Proc, rt *Runtime)) {
		ps := asyncParams(func(ps *Params) { ps.LowWatermark, ps.HighWatermark = low, high })
		e, _, boot := asyncDaxWorld(16*mib, 4, ps)
		e.Spawn(0, "t", func(p *engine.Proc) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "core: bad eviction watermarks: ") {
					t.Errorf("panic = %q, want \"core: bad eviction watermarks: ...\"", msg)
				}
			}()
			if rt := boot(p); then != nil {
				then(p, rt)
			}
		})
		e.Run()
		e.Close()
	}
	t.Run("boot-inverted", func(t *testing.T) { badWatermarks(t, 256, 64, nil) })
	t.Run("resize-below-high", func(t *testing.T) {
		badWatermarks(t, 64, 2048, func(p *engine.Proc, rt *Runtime) {
			rt.ResizeCache(p, 4*mib) // 1024 pages: the explicit high no longer fits
		})
	})
}
