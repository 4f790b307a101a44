package torture

// Auto-shrinking: delta debugging (ddmin) over the op trace, then a pass of
// structural simplifications, each kept only if the plan still fails. The
// symbolic crash coordinates (CrashSpec.AtAck / OpFrac) re-resolve against a
// probe run on every Execute, so removing ops cannot silently move the crash
// out of the trace — it lands on the k'th surviving acknowledgment instead.

// ShrinkResult reports what the shrinker did.
type ShrinkResult struct {
	Plan    *Plan
	Outcome *Outcome
	Runs    int // Execute calls spent
	FromOps int
	ToOps   int
}

// Shrink reduces a failing plan to a (locally) minimal one, spending at most
// budget Execute calls. The input plan must fail; Shrink panics otherwise so
// a caller cannot accidentally "shrink" a passing run into nothing.
func Shrink(pl *Plan, budget int) *ShrinkResult {
	res := &ShrinkResult{FromOps: len(pl.Ops)}
	fails := func(c *Plan) (*Outcome, bool) {
		if res.Runs >= budget {
			return nil, false
		}
		res.Runs++
		o := Execute(c)
		return o, o.Failed()
	}
	o, ok := fails(pl)
	if !ok {
		panic("torture: Shrink called on a passing plan")
	}
	best, bestOut := pl.clone(), o

	// ddmin over the op list.
	n := 2
	for len(best.Ops) >= 2 && res.Runs < budget {
		chunk := (len(best.Ops) + n - 1) / n
		reduced := false
		for start := 0; start < len(best.Ops) && res.Runs < budget; start += chunk {
			end := start + chunk
			if end > len(best.Ops) {
				end = len(best.Ops)
			}
			cand := best.clone()
			cand.Ops = append(append([]Op(nil), best.Ops[:start]...), best.Ops[end:]...)
			if out, ok := fails(cand); ok {
				best, bestOut = cand, out
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(best.Ops) {
				break
			}
			n = min(2*n, len(best.Ops))
		}
	}

	// Structural simplifications, most-impactful first. Each is one probe:
	// keep it only if the failure survives.
	try := func(mutate func(*Plan) bool) {
		if res.Runs >= budget {
			return
		}
		cand := best.clone()
		if !mutate(cand) {
			return
		}
		if out, ok := fails(cand); ok {
			best, bestOut = cand, out
		}
	}
	try(func(c *Plan) bool {
		if c.Fault == nil {
			return false
		}
		c.Fault = nil
		return true
	})
	try(func(c *Plan) bool {
		if c.Crash == nil {
			return false
		}
		c.Crash = nil
		return true
	})
	try(func(c *Plan) bool {
		if c.SchedPerturb == 0 {
			return false
		}
		c.SchedPerturb = 0
		return true
	})
	try(func(c *Plan) bool {
		if c.HugeDensity == 0 {
			return false
		}
		c.HugeDensity = 0
		for i := range c.Ops {
			if c.Ops[i].Kind == OpHuge {
				c.Ops[i].Kind = OpLoad
			}
		}
		return true
	})
	try(func(c *Plan) bool {
		// Collapse to one thread: retarget every op to thread 0.
		if c.Threads == 1 {
			return false
		}
		c.Threads = 1
		for i := range c.Ops {
			c.Ops[i].T = 0
		}
		return true
	})
	try(func(c *Plan) bool {
		if c.Kreon == nil {
			return false
		}
		for _, op := range c.Ops {
			switch op.Kind {
			case OpKvPut, OpKvGet, OpKvScan, OpKvMsync:
				return false // still referenced
			}
		}
		c.Kreon = nil
		return true
	})
	try(func(c *Plan) bool { return dropUnusedFiles(c) })

	res.Plan, res.Outcome = best, bestOut
	res.ToOps = len(best.Ops)
	return res
}

// dropUnusedFiles removes files no surviving op references, renumbering the
// ops' file indices. Returns false if nothing would change.
func dropUnusedFiles(c *Plan) bool {
	used := make([]bool, len(c.Files))
	for _, op := range c.Ops {
		switch op.Kind {
		case OpKvPut, OpKvGet, OpKvScan, OpKvMsync:
		default:
			used[op.File] = true
		}
	}
	remap := make([]int, len(c.Files))
	var files []FileSpec
	changed := false
	for i, u := range used {
		if !u {
			changed = true
			remap[i] = -1
			continue
		}
		remap[i] = len(files)
		files = append(files, c.Files[i])
	}
	if !changed || len(files) == 0 {
		return false
	}
	c.Files = files
	for i := range c.Ops {
		switch c.Ops[i].Kind {
		case OpKvPut, OpKvGet, OpKvScan, OpKvMsync:
		default:
			c.Ops[i].File = remap[c.Ops[i].File]
		}
	}
	return true
}
