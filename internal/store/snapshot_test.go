package store

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := seeded(t)
	if err := s.PutContribution(&model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.5}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Workers(), back.Workers()) {
		t.Error("workers differ after round trip")
	}
	if !reflect.DeepEqual(s.Tasks(), back.Tasks()) {
		t.Error("tasks differ after round trip")
	}
	if !reflect.DeepEqual(s.Contributions(), back.Contributions()) {
		t.Error("contributions differ after round trip")
	}
	// Indexes must be rebuilt, not just entity maps.
	if !reflect.DeepEqual(s.ContributionsByTask("t1"), back.ContributionsByTask("t1")) {
		t.Error("contribution index differs after round trip")
	}
}

func TestFromSnapshotRejectsBadData(t *testing.T) {
	snap := &model.Snapshot{} // no skills
	if _, err := FromSnapshot(snap); err == nil {
		t.Error("empty snapshot accepted")
	}
	snap = &model.Snapshot{
		Skills: []string{"a"},
		Tasks:  []*model.Task{{ID: "t", Requester: "ghost", Skills: model.SkillVector{false}}},
	}
	if _, err := FromSnapshot(snap); err == nil {
		t.Error("orphan task accepted")
	}
}
