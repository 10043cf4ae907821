package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

func TestMutationCodecRoundTrip(t *testing.T) {
	muts := []Mutation{
		{
			Change: Change{Version: 1, Op: OpInsert, Entity: EntityWorker, Worker: "w1"},
			Worker: &model.Worker{
				ID:       "w1",
				Declared: model.Attributes{"country": model.Str("jp"), "age": model.Num(33)},
				Computed: model.Attributes{"acceptance_ratio": model.Num(0.875)},
				Skills:   model.SkillVector{true, false, true},
			},
		},
		{
			Change: Change{Version: 2, Op: OpUpdate, Entity: EntityWorker, Worker: "w2"},
			Worker: &model.Worker{ID: "w2", Skills: model.SkillVector{false, false, false}},
		},
		{
			Change:    Change{Version: 3, Op: OpInsert, Entity: EntityRequester, Requester: "r1"},
			Requester: &model.Requester{ID: "r1", Name: "Requester One"},
		},
		{
			Change: Change{Version: 4, Op: OpInsert, Entity: EntityTask, Task: "t1", Requester: "r1"},
			Task: &model.Task{
				ID: "t1", Requester: "r1", Skills: model.SkillVector{false, true, false},
				Reward: 2.5, Quota: 3, Published: 5, Title: "label images",
			},
		},
		{
			Change: Change{
				Version: 5, Op: OpInsert, Entity: EntityContribution,
				Contribution: "c1", Task: "t1", Worker: "w1",
			},
			Contribution: &model.Contribution{
				ID: "c1", Task: "t1", Worker: "w1",
				Text: "an answer", Quality: 0.75, Accepted: true, Paid: 1.25, SubmittedAt: 42,
			},
		},
		{
			Change: Change{
				Version: 6, Op: OpUpdate, Entity: EntityContribution,
				Contribution: "c2", Task: "t1", Worker: "w2",
			},
			Contribution: &model.Contribution{
				ID: "c2", Task: "t1", Worker: "w2",
				Ranking: []string{"a", "b", "c"}, Quality: 0.25, SubmittedAt: -1,
			},
		},
	}
	for _, m := range muts {
		payload := encodeMutation(nil, m, walEpoch)
		got, err := decodeMutation(m.Change.Version, payload, walEpoch)
		if err != nil {
			t.Fatalf("decode v%d: %v", m.Change.Version, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip v%d:\n got %#v\nwant %#v", m.Change.Version, got, m)
		}
		// Truncated payloads must degrade to an error, never panic. (A rare
		// prefix can happen to parse as a complete shorter record — the WAL
		// frame CRC, not the codec, is what rules that out in practice.)
		for cut := 0; cut < len(payload); cut++ {
			_, _ = decodeMutation(m.Change.Version, payload[:cut], walEpoch)
		}
	}
}

// TestOnDiskFormatGolden pins the bytes the store writes, so a codec or
// manifest change that would strand existing directories fails here: the
// WAL payloads of a worker insert, a task insert and a contribution update
// (each carrying walEpoch), and the manifest NewDurable writes.
func TestOnDiskFormatGolden(t *testing.T) {
	muts := []struct {
		m    Mutation
		want string
	}{
		{
			Mutation{
				Change: Change{Version: 7, Op: OpInsert, Entity: EntityWorker, Worker: "w1"},
				Worker: &model.Worker{
					ID:       "w1",
					Declared: model.Attributes{"country": model.Str("jp"), "age": model.Num(33)},
					Computed: model.Attributes{"acceptance_ratio": model.Num(0.875)},
					Skills:   model.SkillVector{true, false, true},
				},
			},
			"000001027731000000030361676500000000000080404007636f756e74727901026a700210616363657074616e63655f726174696f00000000000000ec3f0305",
		},
		{
			Mutation{
				Change: Change{Version: 8, Op: OpInsert, Entity: EntityTask, Task: "t1", Requester: "r1"},
				Task: &model.Task{
					ID: "t1", Requester: "r1", Skills: model.SkillVector{false, true, false},
					Reward: 2.5, Quota: 3, Published: 5, Title: "label images",
				},
			},
			"00020100027231027431000302000000000000044003050c6c6162656c20696d61676573",
		},
		{
			Mutation{
				Change: Change{
					Version: 9, Op: OpUpdate, Entity: EntityContribution,
					Contribution: "c1", Task: "t1", Worker: "w1",
				},
				Contribution: &model.Contribution{
					ID: "c1", Task: "t1", Worker: "w1",
					Text: "an answer", Ranking: []string{"a", "b"}, Quality: 0.75, Accepted: true, Paid: 1.25, SubmittedAt: 42,
				},
			},
			"0103010277310002743102633109616e20616e737765720301610162000000000000e83f01000000000000f43f54",
		},
	}
	for _, tc := range muts {
		got := encodeMutation(nil, tc.m, walEpoch)
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s %s payload:\n got %x\nwant %s", tc.m.Change.Op, tc.m.Change.Entity, got, tc.want)
		}
		// The WAL decoder accepts exactly these bytes and refuses them as a
		// snapshot record, whose epoch differs.
		if m, err := decodeMutation(tc.m.Change.Version, got, walEpoch); err != nil || !reflect.DeepEqual(m, tc.m) {
			t.Errorf("%s %s: decode = %+v, %v", tc.m.Change.Op, tc.m.Change.Entity, m, err)
		}
		if _, err := decodeMutation(tc.m.Change.Version, got, snapshotEpoch); err == nil {
			t.Errorf("%s %s: WAL payload decoded as a snapshot record", tc.m.Change.Op, tc.m.Change.Entity)
		}
	}

	dir := t.TempDir()
	s, err := NewDurable(model.MustUniverse("go", "sql", "ml"), 4, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const wantManifest = `{"format":3,"skills":["go","sql","ml"],"shards":4,"epoch":1,"version":0}`
	if got, err := os.ReadFile(manifestPath(dir)); err != nil || string(got) != wantManifest {
		t.Fatalf("MANIFEST.json = %s (%v), want %s", got, err, wantManifest)
	}
}

// FuzzSkillBits round-trips a skill vector through the WAL codec: pack the
// []bool, write the packed form as record bytes, decode them, and require
// the bytes to be the one-bit-per-position layout the format pins and both
// the decoded []bool and its packed form to equal the originals.
func FuzzSkillBits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add(append(make([]byte, 699), 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := make(model.SkillVector, len(raw))
		for i, b := range raw {
			v[i] = b&1 != 0
		}
		p := v.Pack()
		enc := appendSkills(nil, p)

		want := binary.AppendUvarint(nil, uint64(len(v)))
		want = append(want, make([]byte, (len(v)+7)/8)...)
		body := want[len(want)-(len(v)+7)/8:]
		for i, set := range v {
			if set {
				body[i/8] |= 1 << (i % 8)
			}
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%s encodes as %x, want %x", v, enc, want)
		}

		d := wal.NewDec(enc)
		got := model.SkillVector(d.Bits())
		if err := d.Err(); err != nil || !d.Done() {
			t.Fatalf("%s: decode err %v, done %v", v, err, d.Done())
		}
		if !slices.Equal(got, v) {
			t.Fatalf("decoded %s, want %s", got, v)
		}
		if !reflect.DeepEqual(got.Pack(), p) {
			t.Fatalf("%s: decoded vector packs as %+v, want %+v", v, got.Pack(), p)
		}
	})
}
