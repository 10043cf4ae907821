package transparency

import (
	"fmt"
	"strconv"
	"strings"
)

// Subject names the entity a disclosed field belongs to.
type Subject string

// Subjects of the disclosure language.
const (
	SubjectRequester Subject = "requester"
	SubjectPlatform  Subject = "platform"
	SubjectWorker    Subject = "worker"
	SubjectTask      Subject = "task"
)

// validSubject reports whether s is one of the four subjects.
func validSubject(s Subject) bool {
	switch s {
	case SubjectRequester, SubjectPlatform, SubjectWorker, SubjectTask:
		return true
	}
	return false
}

// Audience names who a rule discloses to.
type Audience string

// Audiences of the disclosure language.
const (
	AudienceWorkers    Audience = "workers"
	AudienceRequesters Audience = "requesters"
	AudiencePublic     Audience = "public"
)

func validAudience(a Audience) bool {
	switch a {
	case AudienceWorkers, AudienceRequesters, AudiencePublic:
		return true
	}
	return false
}

// Trigger names the platform moment at which a rule fires.
type Trigger string

// Triggers. TriggerAlways means the item is permanently visible.
const (
	TriggerAlways     Trigger = "always"
	TriggerTaskView   Trigger = "task_view"  // when a worker views a task
	TriggerSubmission Trigger = "submission" // when a contribution is submitted
	TriggerRejection  Trigger = "rejection"  // when a contribution is rejected
	TriggerPayment    Trigger = "payment"    // when a payment is issued
	TriggerSignup     Trigger = "signup"     // when a worker joins
)

func validTrigger(t Trigger) bool {
	switch t {
	case TriggerAlways, TriggerTaskView, TriggerSubmission, TriggerRejection, TriggerPayment, TriggerSignup:
		return true
	}
	return false
}

// FieldRef is a subject.field reference, e.g. requester.hourly_wage.
type FieldRef struct {
	Subject Subject
	Field   string
}

// String renders the reference in source form.
func (f FieldRef) String() string { return string(f.Subject) + "." + f.Field }

// Expr is a boolean condition attached to a rule with "when".
type Expr interface {
	// exprString renders the expression in source form.
	exprString() string
	isExpr()
}

// BinaryExpr is "lhs op rhs" where op is and/or, or a comparison.
type BinaryExpr struct {
	Op    string // "and", "or", "==", "!=", "<", "<=", ">", ">="
	Left  Expr
	Right Expr
}

func (e *BinaryExpr) isExpr() {}
func (e *BinaryExpr) exprString() string {
	return fmt.Sprintf("(%s %s %s)", e.Left.exprString(), e.Op, e.Right.exprString())
}

// NotExpr is "not expr".
type NotExpr struct{ X Expr }

func (e *NotExpr) isExpr()            {}
func (e *NotExpr) exprString() string { return "not " + e.X.exprString() }

// FieldExpr is a field reference operand.
type FieldExpr struct{ Ref FieldRef }

func (e *FieldExpr) isExpr()            {}
func (e *FieldExpr) exprString() string { return e.Ref.String() }

// NumberExpr is a numeric literal operand.
type NumberExpr struct{ Value float64 }

func (e *NumberExpr) isExpr() {}
func (e *NumberExpr) exprString() string {
	return strconv.FormatFloat(e.Value, 'g', -1, 64)
}

// StringExpr is a string literal operand.
type StringExpr struct{ Value string }

func (e *StringExpr) isExpr()            {}
func (e *StringExpr) exprString() string { return quote(e.Value) }

// quote renders s as a policy-language string literal: the lexer knows only
// the escapes \", \\, \n and \t and takes every other byte as it stands,
// so those four are escaped and nothing else is (strconv.Quote would write
// \x and \u escapes that Parse rejects).
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Rule is one "disclose" statement.
type Rule struct {
	// Field is what is disclosed.
	Field FieldRef
	// To is who sees it.
	To Audience
	// On is when the disclosure happens (TriggerAlways by default).
	On Trigger
	// When is an optional gating condition; nil means unconditional.
	When Expr
	// Line is the source line of the rule, for diagnostics.
	Line int
}

// String renders the rule in canonical source form.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "disclose %s to %s", r.Field, r.To)
	if r.On == TriggerAlways {
		b.WriteString(" always")
	} else {
		fmt.Fprintf(&b, " on %s", r.On)
	}
	if r.When != nil {
		fmt.Fprintf(&b, " when %s", r.When.exprString())
	}
	b.WriteString(";")
	return b.String()
}

// Policy is a named set of disclosure rules — what a requester or a
// platform commits to making transparent.
type Policy struct {
	Name  string
	Rules []*Rule
}

// String renders the policy in canonical source form, suitable for
// re-parsing (the parser round-trips it).
func (p *Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s {\n", quote(p.Name))
	for _, r := range p.Rules {
		fmt.Fprintf(&b, "    %s\n", r)
	}
	b.WriteString("}\n")
	return b.String()
}

// RulesFor returns the rules disclosing to the given audience (public rules
// disclose to everyone and are always included).
func (p *Policy) RulesFor(a Audience) []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.To == a || r.To == AudiencePublic {
			out = append(out, r)
		}
	}
	return out
}
