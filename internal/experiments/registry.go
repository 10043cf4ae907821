package experiments

// Spec is the uniform description of one experiment: an identifier and a
// Run hook that executes it at its default scale with a seed.
type Spec struct {
	// ID is the experiment identifier ("E1".."E11").
	ID string
	// Run executes the experiment with the given seed.
	Run func(seed uint64) *Table
}

// Specs returns every experiment in report order, E1 through E11.
func Specs() []Spec {
	return []Spec{
		{"E1", func(seed uint64) *Table { return E1Assignment(DefaultE1Params(seed)) }},
		{"E2", func(seed uint64) *Table { return E2Visibility(DefaultE2Params(seed)) }},
		{"E3", func(seed uint64) *Table { return E3Compensation(DefaultE3Params(seed)) }},
		{"E4", func(seed uint64) *Table { return E4Detection(DefaultE4Params(seed)) }},
		{"E5", func(seed uint64) *Table { return E5Completion(DefaultE5Params(seed)) }},
		{"E6", func(seed uint64) *Table { return E6Retention(DefaultE6Params(seed)) }},
		{"E7", func(seed uint64) *Table { return E7CheckScale(DefaultE7Params(seed)) }},
		{"E8", func(seed uint64) *Table { return E8RuleEngine(DefaultE8Params(seed)) }},
		{"E9", func(seed uint64) *Table { return E9Ablations(DefaultE9Params(seed)) }},
		{"E10", func(seed uint64) *Table { return E10Bonus(DefaultE10Params(seed)) }},
		{"E11", func(seed uint64) *Table { return E11IncrementalAudit(DefaultE11Params(seed)) }},
	}
}

// SpecByID resolves an experiment by identifier; the boolean is false for
// unknown IDs.
func SpecByID(id string) (Spec, bool) {
	for _, s := range Specs() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}
