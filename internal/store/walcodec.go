package store

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/wal"
)

// Compact binary codec for WAL mutation records. The record's version
// travels as the WAL frame key, so the payload carries only the op, the
// entity kind, the frame epoch, the touched ids, and the mutated entity's
// post-image:
//
//	[op byte][entity byte][epoch uvarint]
//	[worker][requester][task][contribution]   (length-prefixed id strings)
//	[entity post-image]                       (schema per Entity kind)
//
// Ids that double as the entity's own fields (a worker change's Worker id,
// a task change's Requester, ...) are never encoded twice: decode rebuilds
// the entity from the change header plus the post-image body. The format
// is versioned implicitly by the manifest's format number; records are
// validated structurally (Dec latches on truncation) and by the WAL frame
// CRC underneath.

// Frame epochs. The epoch uvarint once named the shard layout a record was
// routed under, when a store could change width online. The field now
// keeps one value per frame kind, so record bytes are those the earlier
// formats wrote: walEpoch in WAL frames, snapshotEpoch in snapshot frames.
// Decoding refuses any other value, so every accepted record re-encodes to
// its own bytes.
const (
	walEpoch      = 1
	snapshotEpoch = 0
)

// encodeAttrs appends an attribute set: uvarint(n+1) with 0 meaning a nil
// map, then each field in sorted key order.
func encodeAttrs(b []byte, a model.Attributes) []byte {
	if a == nil {
		return wal.AppendUvarint(b, 0)
	}
	b = wal.AppendUvarint(b, uint64(len(a))+1)
	for _, k := range a.Keys() {
		v := a[k]
		b = wal.AppendString(b, k)
		b = append(b, byte(v.Kind))
		if v.Kind == model.AttrNum {
			b = wal.AppendFloat64(b, v.Num)
		} else {
			b = wal.AppendString(b, v.Str)
		}
	}
	return b
}

func decodeAttrs(d *wal.Dec) model.Attributes {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	n--
	// Every encoded field costs at least two bytes (key length + kind), so
	// a count beyond the remaining payload is corruption: latch an error
	// instead of allocating from an unvalidated length.
	if n > uint64(len(d.Rest())) {
		d.Fail()
		return nil
	}
	out := make(model.Attributes, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		k := d.String()
		// encodeAttrs writes keys ascending and one of two kinds; anything
		// else is not an encoding it produced.
		if i > 0 && k <= prev {
			d.Fail()
		}
		prev = k
		switch model.AttrKind(d.Byte()) {
		case model.AttrNum:
			out[k] = model.Num(d.Float64())
		case model.AttrStr:
			out[k] = model.Str(d.String())
		default:
			d.Fail()
		}
	}
	return out
}

// encodeStrings appends a string slice with the same nil-preserving
// uvarint(n+1) scheme as encodeAttrs.
func encodeStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return wal.AppendUvarint(b, 0)
	}
	b = wal.AppendUvarint(b, uint64(len(ss))+1)
	for _, s := range ss {
		b = wal.AppendString(b, s)
	}
	return b
}

func decodeStrings(d *wal.Dec) []string {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	n--
	// Each string costs at least its one-byte length prefix; see
	// decodeAttrs.
	if n > uint64(len(d.Rest())) {
		d.Fail()
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// encodeMutation appends the full record payload for m to b, stamped with
// the frame kind's epoch (walEpoch or snapshotEpoch).
func encodeMutation(b []byte, m Mutation, epoch uint64) []byte {
	c := m.Change
	b = append(b, byte(c.Op), byte(c.Entity))
	b = wal.AppendUvarint(b, epoch)
	b = wal.AppendString(b, string(c.Worker))
	b = wal.AppendString(b, string(c.Requester))
	b = wal.AppendString(b, string(c.Task))
	b = wal.AppendString(b, string(c.Contribution))
	switch c.Entity {
	case EntityWorker:
		w := m.Worker
		b = encodeAttrs(b, w.Declared)
		b = encodeAttrs(b, w.Computed)
		b = appendSkills(b, w.SkillBits())
	case EntityRequester:
		b = wal.AppendString(b, m.Requester.Name)
	case EntityTask:
		t := m.Task
		b = appendSkills(b, t.SkillBits())
		b = wal.AppendFloat64(b, t.Reward)
		b = wal.AppendUvarint(b, uint64(t.Quota))
		b = wal.AppendUvarint(b, uint64(t.Published))
		b = wal.AppendString(b, t.Title)
	case EntityContribution:
		ct := m.Contribution
		b = wal.AppendString(b, ct.Text)
		b = encodeStrings(b, ct.Ranking)
		b = wal.AppendFloat64(b, ct.Quality)
		b = wal.AppendBool(b, ct.Accepted)
		b = wal.AppendFloat64(b, ct.Paid)
		b = wal.AppendVarint(b, ct.SubmittedAt)
	}
	return b
}

// appendSkills writes a skill vector from its packed form.
func appendSkills(b []byte, p model.SkillBits) []byte {
	return wal.AppendBits(b, p.Len(), p.Words())
}

// decodeMutation rebuilds a Mutation from a frame (key = version, payload
// = encodeMutation output) whose epoch must be the given frame kind's.
func decodeMutation(version uint64, payload []byte, epoch uint64) (Mutation, error) {
	d := wal.NewDec(payload)
	var m Mutation
	m.Change.Version = version
	m.Change.Op = Op(d.Byte())
	m.Change.Entity = Entity(d.Byte())
	if got := d.Uvarint(); got != epoch {
		return Mutation{}, fmt.Errorf("store: wal record v%d: epoch %d, want %d", version, got, epoch)
	}
	m.Change.Worker = model.WorkerID(d.String())
	m.Change.Requester = model.RequesterID(d.String())
	m.Change.Task = model.TaskID(d.String())
	m.Change.Contribution = model.ContributionID(d.String())
	switch m.Change.Entity {
	case EntityWorker:
		m.Worker = &model.Worker{
			ID:       m.Change.Worker,
			Declared: decodeAttrs(d),
			Computed: decodeAttrs(d),
			Skills:   model.SkillVector(d.Bits()),
		}
	case EntityRequester:
		m.Requester = &model.Requester{ID: m.Change.Requester, Name: d.String()}
	case EntityTask:
		m.Task = &model.Task{
			ID:        m.Change.Task,
			Requester: m.Change.Requester,
			Skills:    model.SkillVector(d.Bits()),
			Reward:    d.Float64(),
			Quota:     int(d.Uvarint()),
			Published: int(d.Uvarint()),
			Title:     d.String(),
		}
	case EntityContribution:
		m.Contribution = &model.Contribution{
			ID:          m.Change.Contribution,
			Task:        m.Change.Task,
			Worker:      m.Change.Worker,
			Text:        d.String(),
			Ranking:     decodeStrings(d),
			Quality:     d.Float64(),
			Accepted:    d.Bool(),
			Paid:        d.Float64(),
			SubmittedAt: d.Varint(),
		}
	default:
		return Mutation{}, fmt.Errorf("store: wal record v%d: unknown entity %d", version, m.Change.Entity)
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return Mutation{}, fmt.Errorf("store: wal record v%d: %w", version, err)
		}
		return Mutation{}, fmt.Errorf("store: wal record v%d: trailing bytes", version)
	}
	return m, nil
}
