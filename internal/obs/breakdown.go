package obs

import (
	"fmt"
	"strings"
)

// Breakdown attributes cycles to named categories, preserving first-use
// order for stable reporting. It is the registry-backed successor of the old
// internal/metrics Breakdown and powers the per-component bars of the
// paper's Figures 7 and 8.
type Breakdown struct {
	order []string
	cells map[string]*breakdownCell
}

// breakdownCell is one category's totals. Add sits on every simulated
// charge, so a category costs one map lookup, not one per total.
type breakdownCell struct {
	cycles uint64
	count  uint64
}

// NewBreakdown creates an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{cells: make(map[string]*breakdownCell)}
}

// cell returns the category's cell, creating it on first use.
func (b *Breakdown) cell(category string) *breakdownCell {
	c := b.cells[category]
	if c == nil {
		c = &breakdownCell{}
		b.cells[category] = c
		b.order = append(b.order, category)
	}
	return c
}

// Add attributes cycles to a category.
func (b *Breakdown) Add(category string, cycles uint64) {
	if b == nil {
		return
	}
	c := b.cell(category)
	c.cycles += cycles
	c.count++
}

// Get returns the cycles attributed to a category.
func (b *Breakdown) Get(category string) uint64 {
	if c := b.cells[category]; c != nil {
		return c.cycles
	}
	return 0
}

// Count returns the number of Add calls for a category.
func (b *Breakdown) Count(category string) uint64 {
	if c := b.cells[category]; c != nil {
		return c.count
	}
	return 0
}

// PerOp returns category cycles divided by n (average per operation).
func (b *Breakdown) PerOp(category string, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(b.Get(category)) / float64(n)
}

// Total returns the sum over all categories.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, c := range b.cells {
		t += c.cycles
	}
	return t
}

// Categories returns category names in first-use order.
func (b *Breakdown) Categories() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Map returns a copy of the category → cycles mapping (report encoding).
func (b *Breakdown) Map() map[string]uint64 {
	if b == nil {
		return nil
	}
	out := make(map[string]uint64, len(b.cells))
	for name, c := range b.cells {
		out[name] = c.cycles
	}
	return out
}

// Table renders the breakdown as per-op averages over n operations.
func (b *Breakdown) Table(n uint64) string {
	var sb strings.Builder
	total := b.Total()
	for _, c := range b.order {
		v := b.Get(c)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-28s %10.0f cycles/op  %5.1f%%\n", c, b.PerOp(c, n), pct)
	}
	fmt.Fprintf(&sb, "  %-28s %10.0f cycles/op\n", "TOTAL", float64(total)/float64(max(n, 1)))
	return sb.String()
}
