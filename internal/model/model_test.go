package model

import (
	"errors"
	"testing"
)

func TestNewUniverse(t *testing.T) {
	u, err := NewUniverse("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 3 {
		t.Fatalf("size = %d", u.Size())
	}
	if got := u.Names()[1]; got != "b" {
		t.Fatalf("Names()[1] = %q", got)
	}
	i, err := u.Index("c")
	if err != nil || i != 2 {
		t.Fatalf("Index(c) = %d, %v", i, err)
	}
	if _, err := u.Index("zzz"); !errors.Is(err, ErrUnknownSkill) {
		t.Fatalf("unknown skill error = %v", err)
	}
}

func TestNewUniverseErrors(t *testing.T) {
	if _, err := NewUniverse(); !errors.Is(err, ErrNoSkills) {
		t.Errorf("empty universe error = %v", err)
	}
	if _, err := NewUniverse("a", ""); !errors.Is(err, ErrUnknownSkill) {
		t.Errorf("empty name error = %v", err)
	}
}

func TestUniverseDedup(t *testing.T) {
	u := MustUniverse("a", "b", "a")
	if u.Size() != 2 {
		t.Fatalf("dedup failed, size = %d", u.Size())
	}
	names := u.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("order not preserved: %v", names)
	}
}

func TestUniverseVector(t *testing.T) {
	u := MustUniverse("x", "y", "z")
	v, err := u.Vector("x", "z")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "101" {
		t.Fatalf("vector = %s", v)
	}
	if _, err := u.Vector("nope"); err == nil {
		t.Fatal("unknown skill accepted")
	}
}

func TestSkillVectorCovers(t *testing.T) {
	u := MustUniverse("a", "b", "c")
	worker := u.MustVector("a", "b")
	cases := []struct {
		req  SkillVector
		want bool
	}{
		{u.MustVector(), true},
		{u.MustVector("a"), true},
		{u.MustVector("a", "b"), true},
		{u.MustVector("c"), false},
		{u.MustVector("a", "c"), false},
	}
	for _, c := range cases {
		if got := worker.Covers(c.req); got != c.want {
			t.Errorf("Covers(%s) = %v, want %v", c.req, got, c.want)
		}
	}
}

func TestSkillVectorCoversLengthMismatch(t *testing.T) {
	short := SkillVector{true}
	long := SkillVector{true, true}
	if short.Covers(long) {
		t.Error("short vector cannot cover longer requirement")
	}
	if !long.Covers(short) {
		t.Error("long vector should cover shorter requirement")
	}
}

func TestSkillVectorCloneIndependence(t *testing.T) {
	a := SkillVector{true, false}
	b := a.Clone()
	b[1] = true
	if a[1] {
		t.Error("clone shares storage")
	}
}

func TestAttrValue(t *testing.T) {
	if Num(2.5).String() != "2.5" || Str("hi").String() != "hi" {
		t.Error("String rendering broken")
	}
}

func TestAttributesCloneAndKeys(t *testing.T) {
	a := Attributes{"b": Num(1), "a": Str("x")}
	c := a.Clone()
	c["b"] = Num(9)
	if a["b"].Num != 1 {
		t.Error("clone shares storage")
	}
	keys := a.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	if Attributes(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestTaskValidate(t *testing.T) {
	u := MustUniverse("a", "b")
	ok := &Task{ID: "t1", Requester: "r1", Skills: u.MustVector("a"), Reward: 1}
	if err := ok.Validate(u); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	cases := []struct {
		name string
		task Task
		want error
	}{
		{"empty id", Task{Requester: "r", Skills: u.MustVector()}, ErrEmptyID},
		{"empty requester", Task{ID: "t", Skills: u.MustVector()}, ErrEmptyID},
		{"negative reward", Task{ID: "t", Requester: "r", Skills: u.MustVector(), Reward: -1}, ErrNegativeReward},
		{"wrong vector", Task{ID: "t", Requester: "r", Skills: SkillVector{true}}, ErrUnknownSkill},
	}
	for _, c := range cases {
		if err := c.task.Validate(u); !errors.Is(err, c.want) {
			t.Errorf("%s: error = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestTaskQuotaDefaults(t *testing.T) {
	task := &Task{}
	if task.EffectiveQuota() != 1 || task.EffectivePublished() != 1 {
		t.Fatal("zero quota/published should default to 1")
	}
	task.Quota = 3
	if task.EffectivePublished() != 3 {
		t.Fatal("published should default to quota")
	}
	task.Published = 5
	if task.EffectivePublished() != 5 {
		t.Fatal("explicit published ignored")
	}
}

func TestWorkerValidate(t *testing.T) {
	u := MustUniverse("a")
	w := &Worker{ID: "w1", Skills: u.MustVector("a")}
	if err := w.Validate(u); err != nil {
		t.Fatalf("valid worker rejected: %v", err)
	}
	if err := (&Worker{Skills: u.MustVector()}).Validate(u); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id error = %v", err)
	}
	if err := (&Worker{ID: "w", Skills: SkillVector{}}).Validate(u); !errors.Is(err, ErrUnknownSkill) {
		t.Errorf("bad vector error = %v", err)
	}
}

func TestWorkerCloneDeep(t *testing.T) {
	u := MustUniverse("a")
	w := &Worker{
		ID:       "w1",
		Declared: Attributes{"country": Str("jp")},
		Computed: Attributes{AttrAcceptanceRatio: Num(0.9)},
		Skills:   u.MustVector("a"),
	}
	c := w.Clone()
	c.Declared["country"] = Str("fr")
	c.Skills[0] = false
	if w.Declared["country"].Str != "jp" || !w.Skills[0] {
		t.Error("clone shares storage with original")
	}
}

func TestRequesterValidate(t *testing.T) {
	if err := (&Requester{ID: "r"}).Validate(); err != nil {
		t.Fatalf("valid requester rejected: %v", err)
	}
	if err := (&Requester{}).Validate(); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id error = %v", err)
	}
}

func TestContributionValidate(t *testing.T) {
	ok := &Contribution{ID: "c", Task: "t", Worker: "w", Quality: 0.5}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid contribution rejected: %v", err)
	}
	bad := []Contribution{
		{Task: "t", Worker: "w"},
		{ID: "c", Worker: "w"},
		{ID: "c", Task: "t"},
		{ID: "c", Task: "t", Worker: "w", Quality: 1.5},
		{ID: "c", Task: "t", Worker: "w", Quality: -0.1},
		{ID: "c", Task: "t", Worker: "w", Paid: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("invalid contribution %d accepted", i)
		}
	}
}

func TestContributionCloneDeep(t *testing.T) {
	c := &Contribution{ID: "c", Task: "t", Worker: "w", Ranking: []string{"a", "b"}}
	cc := c.Clone()
	cc.Ranking[0] = "z"
	if c.Ranking[0] != "a" {
		t.Error("clone shares ranking storage")
	}
}
