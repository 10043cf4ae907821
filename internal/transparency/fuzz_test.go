package transparency

import "testing"

// FuzzParse: Parse never panics, and a policy that parses prints (String)
// to a source that parses back to the same policy text — so a rendered
// policy can be stored and re-read without drift. Seeds are the audited
// platform policy of crowdbench's audit_churn, the example policies and a
// broken one.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		churnPolicy,
		`# An AMT-like platform that committed to worker-facing transparency.
policy "open-platform" {
    disclose requester.hourly_wage to workers always;
    disclose task.recruitment_criteria to workers on task_view;
    disclose platform.requester_rating to public always;
}`,
		`policy "cautious-platform" {
    disclose task.reward to workers always;
    disclose requester.hourly_wage to workers when worker.completed >= 50;
    disclose task.rejection_criteria to workers on rejection;
    disclose worker.performance to requesters when worker.consent == "granted";
}`,
		`policy "gated" { disclose task.reward to workers when worker.completed >= 1; }`,
		`policy "broken" { disclose worker.shoe_size to workers always; }`,
		`policy "x" {`,
		``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pol, err := Parse(src)
		if err != nil {
			return
		}
		text := pol.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) gave a policy whose String %q does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q).String() = %q re-parses to %q", src, text, got)
		}
	})
}
