package model

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestAttrValueJSONRoundTrip(t *testing.T) {
	for _, v := range []AttrValue{Num(3.25), Num(0), Str("tokyo"), Str("")} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back AttrValue
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if v != back {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestAttrValueJSONErrors(t *testing.T) {
	var v AttrValue
	if err := json.Unmarshal([]byte(`{}`), &v); err == nil {
		t.Error("neither field accepted")
	}
	if err := json.Unmarshal([]byte(`{"num":1,"str":"x"}`), &v); err == nil {
		t.Error("both fields accepted")
	}
	if err := json.Unmarshal([]byte(`"not an object"`), &v); err == nil {
		t.Error("non-object accepted")
	}
}

func TestSkillVectorJSONRoundTrip(t *testing.T) {
	for _, s := range []string{"", "1", "0", "10110", "0000"} {
		v := NewSkillVector(len(s))
		for i := range s {
			v[i] = s[i] == '1'
		}
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back SkillVector
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(v, back) {
			t.Errorf("round trip %s -> %s -> %s", v, data, back)
		}
	}
}

func TestSkillVectorJSONRejectsBadBits(t *testing.T) {
	var v SkillVector
	if err := json.Unmarshal([]byte(`"10x"`), &v); err == nil {
		t.Error("invalid bit accepted")
	}
}

func TestSkillVectorRoundTripProperty(t *testing.T) {
	f := func(bits []bool) bool {
		v := SkillVector(bits)
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		var back SkillVector
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return slices.Equal(v, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testSnapshot() *Snapshot {
	u := MustUniverse("a", "b")
	return &Snapshot{
		Skills: u.Names(),
		Workers: []*Worker{{
			ID:       "w1",
			Declared: Attributes{"country": Str("jp")},
			Computed: Attributes{AttrAcceptanceRatio: Num(0.875)},
			Skills:   u.MustVector("a"),
		}},
		Requesters: []*Requester{{ID: "r1", Name: "R"}},
		Tasks: []*Task{{
			ID: "t1", Requester: "r1", Skills: u.MustVector("b"),
			Reward: 1.5, Quota: 2, Published: 4, Title: "demo",
		}},
		Contributions: []*Contribution{{
			ID: "c1", Task: "t1", Worker: "w1", Text: "hello",
			Quality: 0.8, Accepted: true, Paid: 1.5, SubmittedAt: 7,
		}},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", snap, back)
	}
}

func TestDecodeSnapshotValidates(t *testing.T) {
	snap := testSnapshot()
	snap.Tasks[0].Reward = -1
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data); err == nil {
		t.Error("invalid snapshot accepted")
	}
	if _, err := DecodeSnapshot([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSnapshotUniverse(t *testing.T) {
	snap := testSnapshot()
	u, err := snap.Universe()
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 2 {
		t.Fatalf("universe size = %d", u.Size())
	}
}

func TestSnapshotValidateCatchesEveryEntity(t *testing.T) {
	mutations := []func(*Snapshot){
		func(s *Snapshot) { s.Workers[0].ID = "" },
		func(s *Snapshot) { s.Requesters[0].ID = "" },
		func(s *Snapshot) { s.Tasks[0].ID = "" },
		func(s *Snapshot) { s.Contributions[0].Quality = 2 },
		func(s *Snapshot) { s.Skills = nil },
	}
	for i, mutate := range mutations {
		snap := testSnapshot()
		mutate(snap)
		if err := snap.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}
