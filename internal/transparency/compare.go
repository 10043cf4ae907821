package transparency

import (
	"fmt"
	"sort"
	"strings"
)

// Comparison is the result of diffing two policies — the cross-platform
// comparison the paper highlights as a benefit of declarative rules ("the
// declarative nature of those rules will allow easy comparison across
// platforms").
type Comparison struct {
	A, B string // policy names
	// OnlyA / OnlyB are fields disclosed by one policy but not the other.
	OnlyA []FieldRef
	OnlyB []FieldRef
	// Shared are fields both disclose; Weaker lists shared fields where one
	// side attaches strictly more restrictive gating (a condition or a
	// narrower trigger) than the other.
	Shared []FieldRef
	Weaker []WeakerDisclosure
}

// WeakerDisclosure records a shared field that one policy gates harder.
type WeakerDisclosure struct {
	Field FieldRef
	// WeakerSide is the policy name whose disclosure is more restricted.
	WeakerSide string
	Reason     string
}

// Compare diffs two policies field-by-field.
func Compare(a, b *Policy) *Comparison {
	cmp := &Comparison{A: a.Name, B: b.Name}
	fieldsA := bestRules(a.Rules)
	fieldsB := bestRules(b.Rules)

	var refs []FieldRef
	seen := make(map[FieldRef]bool)
	for ref := range fieldsA {
		if !seen[ref] {
			seen[ref] = true
			refs = append(refs, ref)
		}
	}
	for ref := range fieldsB {
		if !seen[ref] {
			seen[ref] = true
			refs = append(refs, ref)
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Subject != refs[j].Subject {
			return refs[i].Subject < refs[j].Subject
		}
		return refs[i].Field < refs[j].Field
	})

	for _, ref := range refs {
		ra, inA := fieldsA[ref]
		rb, inB := fieldsB[ref]
		switch {
		case inA && !inB:
			cmp.OnlyA = append(cmp.OnlyA, ref)
		case inB && !inA:
			cmp.OnlyB = append(cmp.OnlyB, ref)
		default:
			cmp.Shared = append(cmp.Shared, ref)
			sa, sb := strictness(ra), strictness(rb)
			if sa > sb {
				cmp.Weaker = append(cmp.Weaker, WeakerDisclosure{
					Field: ref, WeakerSide: a.Name,
					Reason: fmt.Sprintf("%q gates it (%s) while %q does not", a.Name, gateDesc(ra), b.Name),
				})
			} else if sb > sa {
				cmp.Weaker = append(cmp.Weaker, WeakerDisclosure{
					Field: ref, WeakerSide: b.Name,
					Reason: fmt.Sprintf("%q gates it (%s) while %q does not", b.Name, gateDesc(rb), a.Name),
				})
			}
		}
	}
	return cmp
}

// bestRules returns, per field, the least-restrictive rule among rules
// that discloses it.
func bestRules(rules []*Rule) map[FieldRef]*Rule {
	out := make(map[FieldRef]*Rule)
	for _, r := range rules {
		cur, ok := out[r.Field]
		if !ok || strictness(r) < strictness(cur) {
			out[r.Field] = r
		}
	}
	return out
}

// strictness orders rules from most open (0) to most gated.
func strictness(r *Rule) int {
	s := 0
	if r.On != TriggerAlways {
		s++
	}
	if r.When != nil {
		s += 2
	}
	return s
}

func gateDesc(r *Rule) string {
	var parts []string
	if r.On != TriggerAlways {
		parts = append(parts, "only on "+string(r.On))
	}
	if r.When != nil {
		parts = append(parts, "only when "+r.When.exprString())
	}
	if len(parts) == 0 {
		return "unconditionally"
	}
	return strings.Join(parts, " and ")
}

// String renders the comparison as a readable report.
func (c *Comparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Comparing %q and %q:\n", c.A, c.B)
	writeRefList(&b, fmt.Sprintf("only %q discloses", c.A), c.OnlyA)
	writeRefList(&b, fmt.Sprintf("only %q discloses", c.B), c.OnlyB)
	writeRefList(&b, "both disclose", c.Shared)
	for _, w := range c.Weaker {
		fmt.Fprintf(&b, "  weaker on %s: %s\n", w.Field, w.Reason)
	}
	return b.String()
}

func writeRefList(b *strings.Builder, label string, refs []FieldRef) {
	if len(refs) == 0 {
		return
	}
	strs := make([]string, len(refs))
	for i, r := range refs {
		strs[i] = r.String()
	}
	fmt.Fprintf(b, "  %s: %s\n", label, strings.Join(strs, ", "))
}

// TransparencyScore quantifies how much a policy discloses, as the share of
// catalogue fields it discloses to workers weighted by openness (ungated
// rules count 1, triggered 0.75, conditional 0.5). Each field counts its
// most open worker or public rule, so rules for other audiences never
// change the score and adding a rule never lowers it. The §4.1 experiment
// E6 sweeps this score against worker retention. Scores are in [0,1].
func TransparencyScore(p *Policy, cat *Catalogue) float64 {
	entries := cat.Entries()
	if len(entries) == 0 {
		return 0
	}
	best := bestRules(p.RulesFor(AudienceWorkers))
	var total float64
	for _, e := range entries {
		r, ok := best[e.Ref]
		if !ok {
			continue
		}
		switch strictness(r) {
		case 0:
			total += 1
		case 1:
			total += 0.75
		default:
			total += 0.5
		}
	}
	return total / float64(len(entries))
}
