// Package cycles is the cyclecost golden: the stand-in types mirror the
// transition-cost surface's method names (engine.Proc, host.Hypervisor,
// core.Runtime), which is what the analyzer matches on.
package cycles

type Proc struct{}

func (p *Proc) AdvanceUser(cycles uint64)         {}
func (p *Proc) AdvanceSystem(cycles uint64)       {}
func (p *Proc) Advance(cat string, cycles uint64) {}
func (p *Proc) WaitUntil(deadline uint64)         {}
func (p *Proc) SleepIO(cycles uint64)             {}

type Hypervisor struct{}

func (hv *Hypervisor) VMCall(p *Proc, handlerCycles uint64)                  {}
func (hv *Hypervisor) SendShootdownIPIs(p *Proc, targets []int, recv uint64) {}

type Runtime struct{}

func (rt *Runtime) charge(p *Proc, cat string, cycles uint64) {}

type costs struct{ TrapEntry, IPIRecv uint64 }

const handlerBase = 900

func drive(p *Proc, hv *Hypervisor, rt *Runtime, c costs, lines uint64, attempt int) {
	p.AdvanceUser(1200)                // want "uncalibrated cycle literal in Proc.AdvanceUser"
	p.Advance("fault", 450)            // want "uncalibrated cycle literal in Proc.Advance"
	hv.VMCall(p, 5000)                 // want "uncalibrated cycle literal in Hypervisor.VMCall"
	hv.SendShootdownIPIs(p, nil, 2000) // want "uncalibrated cycle literal in Hypervisor.SendShootdownIPIs"
	rt.charge(p, "lookup", 250)        // want "uncalibrated cycle literal in Runtime.charge"

	p.AdvanceUser(0)             // explicit no-op: allowed
	p.AdvanceUser(c.TrapEntry)   // cost-table field: allowed
	p.AdvanceUser(2 * c.IPIRecv) // scaled cost-table field: allowed
	hv.VMCall(p, handlerBase)    // named constant: allowed
	rt.charge(p, "lookup", c.TrapEntry+handlerBase)

	// A literal term of the sum, or a literal factor of a term that names no
	// cost, is charged uncalibrated however the rest is built.
	p.AdvanceUser(c.TrapEntry + lines*12 + 30)      // want "uncalibrated cycle literal in Proc.AdvanceUser"
	p.AdvanceUser(c.TrapEntry + 30)                 // want "uncalibrated cycle literal in Proc.AdvanceUser"
	p.AdvanceSystem(uint64(lines*12) + handlerBase) // want "uncalibrated cycle literal in Proc.AdvanceSystem"
	rt.charge(p, "flush", lines/4)                  // want "uncalibrated cycle literal in Runtime.charge"

	p.AdvanceUser(lines*c.IPIRecv + handlerBase)         // every term names a cost: allowed
	rt.charge(p, "retry", handlerBase*uint64(attempt+1)) // the literal is an operand of a factor: allowed
	p.AdvanceUser(lines)                                 // a count alone charges no literal: allowed
}
