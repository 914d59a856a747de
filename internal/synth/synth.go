// Package synth implements Section 5.4 of the paper: turning an extracted
// turn set into the routing-unit logic of a router — the if-else cascade
// over destination offsets and the input channel — and measuring its
// implementation cost. The paper's point, reproduced here, is that more
// allowable turns do not necessarily mean more complex routing logic:
// adding turns can merge if-else branches (the fully adaptive NE region
// needs one rule where XY needs two).
//
// The synthesizer abstracts a design into sign-based rules: for every
// destination region (the sign of the remaining offset in each dimension)
// and every possible input channel class, it derives the set of output
// channel classes the design offers. Rules with identical outputs across
// all inputs collapse to region-only rules, mirroring how a hardware
// routing unit is written. The result can be rendered as paper-style
// pseudo-code or as compilable Go source, and costed in leaves and
// comparisons.
package synth

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/routing"
	"ebda/internal/topology"
)

// Region is the sign of the remaining offset per dimension: -1, 0 or +1.
type Region []int8

// String renders the region as "X+ Y-" ("·" for zero offsets).
func (r Region) String() string {
	parts := make([]string, 0, len(r))
	for d, s := range r {
		switch s {
		case 1:
			parts = append(parts, channel.Dim(d).String()+"+")
		case -1:
			parts = append(parts, channel.Dim(d).String()+"-")
		}
	}
	if len(parts) == 0 {
		return "local"
	}
	return strings.Join(parts, " ")
}

// Rule is one row of the synthesized decision table.
type Rule struct {
	// Region is the destination region the rule applies to.
	Region Region
	// In is the input channel class the rule is conditioned on; nil when
	// the rule holds for every input reaching that region (merged rule).
	In *channel.Class
	// Out lists the output channel classes offered.
	Out []channel.Class
}

// Logic is a synthesized routing unit.
type Logic struct {
	Name  string
	Dims  int
	Rules []Rule
	// merged counts how many per-input cases collapsed into region-only
	// rules.
	merged int
}

// Generate synthesizes the routing logic of a chain-derived design by
// probing a FromChain algorithm at the centre of a mesh large enough that
// boundary effects cannot reach it. Designs with coordinate-parity classes
// are position-dependent and are rejected (their logic differs between
// even and odd columns; synthesize per-parity variants by fixing columns
// instead).
func Generate(name string, chain *core.Chain, dims int) (*Logic, error) {
	for _, c := range chain.Channels() {
		if c.Par != channel.Any {
			return nil, fmt.Errorf("synth: parity-classed design %s is position-dependent", c)
		}
	}
	alg := routing.NewFromChain(name, chain, dims)
	// A mesh of extent 7 per dimension with the probe at the centre
	// keeps every +-2 offset interior.
	sizes := make([]int, dims)
	centre := make(topology.Coord, dims)
	for d := range sizes {
		sizes[d] = 7
		centre[d] = 3
	}
	net := topology.NewMesh(sizes...)
	cur := net.ID(centre)

	// Probe inputs: injection plus every (dim, sign, vc) the design has.
	type inCase struct {
		cls *channel.Class
	}
	inputs := []inCase{{nil}}
	vcs := alg.VCs()
	for d := 0; d < dims; d++ {
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= vcs[d]; vc++ {
				c := channel.NewVC(channel.Dim(d), sign, vc)
				inputs = append(inputs, inCase{&c})
			}
		}
	}

	logic := &Logic{Name: name, Dims: dims}
	for _, region := range regions(dims) {
		dst := centre.Clone()
		for d, s := range region {
			dst[d] += 2 * int(s)
		}
		dstID := net.ID(dst)
		// Collect per-input candidate sets; inputs that cannot occur in
		// this region (the packet would have had to move away from the
		// destination) are skipped: an input is plausible if its reverse
		// hop was productive, i.e. arriving via (d, sign) implies the
		// offset in d is not opposite to sign... more simply, arriving
		// via (d, sign) is plausible unless the remaining offset in d
		// points opposite to the arrival direction would never happen
		// under minimal routing. Detour-capable designs are synthesized
		// with all inputs.
		type entry struct {
			in  *channel.Class
			out []channel.Class
		}
		var entries []entry
		for _, ic := range inputs {
			if !plausible(region, ic.cls) {
				continue
			}
			out := alg.Candidates(net, cur, ic.cls, dstID)
			if len(out) == 0 {
				// A state with no outputs is unreachable under the
				// design itself: the chain-derived algorithm never
				// routes a packet into a class from which the
				// destination region would become unreachable
				// (FromChain's reachability guard). Injection states
				// must never be empty, though — that would be a
				// broken (disconnected) design.
				if ic.cls == nil {
					return nil, fmt.Errorf("synth: design offers no route for region %s", region)
				}
				continue
			}
			out = sortedClasses(out)
			entries = append(entries, entry{in: ic.cls, out: out})
		}
		// Merge when every plausible input yields identical outputs.
		same := len(entries) > 0
		for _, e := range entries[1:] {
			if !equalClasses(entries[0].out, e.out) {
				same = false
				break
			}
		}
		if same {
			logic.Rules = append(logic.Rules, Rule{
				Region: append(Region(nil), region...),
				Out:    entries[0].out,
			})
			logic.merged += len(entries) - 1
			continue
		}
		for _, e := range entries {
			logic.Rules = append(logic.Rules, Rule{
				Region: append(Region(nil), region...),
				In:     e.in,
				Out:    e.out,
			})
		}
	}
	return logic, nil
}

func equalClasses(a, b []channel.Class) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedClasses returns a sorted copy of cs; Candidates answers are
// shared and must not be sorted in place.
func sortedClasses(cs []channel.Class) []channel.Class {
	out := slices.Clone(cs)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// plausible reports whether a packet can be at the probe with the given
// remaining region having arrived on the given channel under minimal
// routing: the hop that brought it here must have been productive, so the
// remaining offset along the arrival dimension cannot point backwards.
func plausible(region Region, in *channel.Class) bool {
	if in == nil {
		return true
	}
	rem := region[in.Dim]
	if rem == 0 {
		return true
	}
	return (rem > 0) == (in.Sign == channel.Plus)
}

// regions enumerates the 3^n - 1 non-local destination regions.
func regions(dims int) []Region {
	var out []Region
	cur := make(Region, dims)
	var rec func(d int)
	rec = func(d int) {
		if d == dims {
			zero := true
			for _, s := range cur {
				if s != 0 {
					zero = false
				}
			}
			if !zero {
				out = append(out, append(Region(nil), cur...))
			}
			return
		}
		for _, s := range []int8{1, -1, 0} {
			cur[d] = s
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// Leaves returns the number of decision-table rows — the paper's measure
// of routing-logic size.
func (l *Logic) Leaves() int { return len(l.Rules) }

// Merged returns how many per-input cases collapsed into region-only
// rules (more turns often means more merging, hence simpler logic).
func (l *Logic) Merged() int { return l.merged }

// Comparisons estimates the comparator count of an if-else realisation:
// each rule needs one sign test per non-zero region dimension, one zero
// test per zero dimension, plus one input-class test when conditioned on
// the input.
func (l *Logic) Comparisons() int {
	total := 0
	for _, r := range l.Rules {
		total += len(r.Region)
		if r.In != nil {
			total++
		}
	}
	return total
}

// RulesForRegion returns the rules of one region.
func (l *Logic) RulesForRegion(region Region) []Rule {
	var out []Rule
	for _, r := range l.Rules {
		if regionEqual(r.Region, region) {
			out = append(out, r)
		}
	}
	return out
}

func regionEqual(a, b Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Pseudo renders the logic in the paper's if-else style.
func (l *Logic) Pseudo() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routing unit %s:\n", l.Name)
	for _, r := range l.Rules {
		conds := make([]string, 0, len(r.Region)+1)
		for d, s := range r.Region {
			off := channel.Dim(d).String() + "offset"
			switch s {
			case 1:
				conds = append(conds, off+" > 0")
			case -1:
				conds = append(conds, off+" < 0")
			default:
				conds = append(conds, off+" == 0")
			}
		}
		if r.In != nil {
			conds = append(conds, "in == "+r.In.String())
		}
		outs := make([]string, len(r.Out))
		for i, c := range r.Out {
			outs[i] = c.String()
		}
		sel := strings.Join(outs, " or ")
		if sel == "" {
			sel = "<none>"
		}
		fmt.Fprintf(&b, "  if %s then Channel <- %s\n", strings.Join(conds, " and "), sel)
	}
	return b.String()
}

// GoSource renders the logic as a compilable Go function over offsets and
// the input class, returning the candidate classes. It is illustrative
// (real designs would feed a hardware generator), but it is valid Go.
func (l *Logic) GoSource(funcName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s is the synthesized routing unit for design %q.\n", funcName, l.Name)
	fmt.Fprintf(&b, "func %s(off [%d]int, in *channel.Class) []channel.Class {\n", funcName, l.Dims)
	b.WriteString("\tswitch {\n")
	for _, r := range l.Rules {
		conds := make([]string, 0, len(r.Region)+1)
		for d, s := range r.Region {
			switch s {
			case 1:
				conds = append(conds, fmt.Sprintf("off[%d] > 0", d))
			case -1:
				conds = append(conds, fmt.Sprintf("off[%d] < 0", d))
			default:
				conds = append(conds, fmt.Sprintf("off[%d] == 0", d))
			}
		}
		if r.In != nil {
			conds = append(conds, fmt.Sprintf("in != nil && *in == channel.MustParse(%q)", r.In.String()))
		}
		outs := make([]string, len(r.Out))
		for i, c := range r.Out {
			outs[i] = fmt.Sprintf("channel.MustParse(%q)", c.String())
		}
		fmt.Fprintf(&b, "\tcase %s:\n\t\treturn []channel.Class{%s}\n",
			strings.Join(conds, " && "), strings.Join(outs, ", "))
	}
	b.WriteString("\t}\n\treturn nil\n}\n")
	return b.String()
}
