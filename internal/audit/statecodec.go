package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/wal"
)

// Binary image of a State, written with the wal payload codec:
//
//	[format byte]
//	[config sig][cursors][event pos]
//	[axiom 1 violations, pairs][axiom 2 violations, pairs]
//	[axiom 3 violations, checked][axiom 4 violations, eligible]
//	[4-byte LE CRC32-IEEE of everything above]
//
// Every list is a uvarint count followed by its elements; maps are written
// in ascending key order and must read back that way, so a State has
// exactly one encoding: two checkpoints of one state are byte-identical and
// every image that decodes re-encodes to itself. Nil and empty collections
// share an encoding and decode as nil.

// stateFormat versions the image layout. Formats 1–3 ended in an image of
// the MinHash/LSH candidate indexes (signature runs, then band-key runs,
// then band keys with token digests); format 4 holds no index image, since
// Resume builds the candidate indexes from the store, but still carried
// the trace's offer sets, flagged workers and Axiom 5 stream; format 5
// drops those, since the recovered log's ledger folds them. An image of
// another format fails DecodeState, so its auditor cold-starts.
const stateFormat = 5

// Minimum encoded sizes, for bounding a count by the bytes that remain
// before allocating from it.
const (
	minStringBytes    = 1  // its length prefix
	minViolationBytes = 11 // axiom, subject count, detail length, severity
)

func appendList[T any](b []byte, list []T, elem func([]byte, T) []byte) []byte {
	b = wal.AppendUvarint(b, uint64(len(list)))
	for _, e := range list {
		b = elem(b, e)
	}
	return b
}

// appendMap writes a map as a list of (key, value) in ascending key order.
func appendMap[K ~string, V any](b []byte, m map[K]V, val func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return appendList(b, keys, func(b []byte, k K) []byte {
		return val(wal.AppendString(b, string(k)), m[k])
	})
}

func appendID[T ~string](b []byte, id T) []byte { return wal.AppendString(b, string(id)) }

func appendIDs[T ~string](b []byte, ids []T) []byte { return appendList(b, ids, appendID[T]) }

func appendCount(b []byte, n int) []byte { return wal.AppendUvarint(b, uint64(n)) }

func appendViolation(b []byte, v fairness.Violation) []byte {
	b = appendCount(b, int(v.Axiom))
	b = appendIDs(b, v.Subjects)
	b = wal.AppendString(b, v.Detail)
	return wal.AppendFloat64(b, v.Severity)
}

func appendViolations(b []byte, vs []fairness.Violation) []byte {
	return appendList(b, vs, appendViolation)
}

func appendPair(b []byte, p [2]string) []byte {
	return wal.AppendString(wal.AppendString(b, p[0]), p[1])
}

// Encode renders the state's binary image (layout above).
func (s *State) Encode() []byte {
	b := make([]byte, 0, 4096)
	b = append(b, stateFormat)
	b = wal.AppendString(b, s.ConfigSig)
	b = appendList(b, s.Cursors, wal.AppendUvarint)
	b = appendCount(b, s.EventPos)

	b = appendViolations(b, s.Ax1Violations)
	b = appendList(b, s.Ax1Pairs, appendPair)
	b = appendViolations(b, s.Ax2Violations)
	b = appendList(b, s.Ax2Pairs, appendPair)
	b = appendMap(b, s.Ax3Violations, appendViolations)
	b = appendMap(b, s.Ax3Checked, appendCount)
	b = appendMap(b, s.Ax4Violations, appendViolation)
	b = appendIDs(b, s.Ax4Eligible)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// stateDec is wal.Dec plus the state codec's composite readers.
type stateDec struct{ *wal.Dec }

// readList reads a count and that many elements, latching an error — and
// allocating nothing — when the remaining bytes cannot hold that many
// elements of at least min bytes each.
func readList[T any](d stateDec, min int, elem func() T) []T {
	n := d.Uvarint()
	if n > uint64(len(d.Rest())/min) {
		d.Fail()
	}
	if n == 0 || d.Err() != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

// readMap reads what appendMap wrote, latching an error unless keys arrive
// strictly ascending.
func readMap[K ~string, V any](d stateDec, minVal int, val func() V) map[K]V {
	type entry struct {
		k K
		v V
	}
	entries := readList(d, minStringBytes+minVal, func() entry { return entry{K(d.String()), val()} })
	if entries == nil {
		return nil
	}
	m := make(map[K]V, len(entries))
	for i, e := range entries {
		if i > 0 && e.k <= entries[i-1].k {
			d.Fail()
		}
		m[e.k] = e.v
	}
	return m
}

func readIDs[T ~string](d stateDec) []T {
	return readList(d, minStringBytes, func() T { return T(d.String()) })
}

func (d stateDec) count() int { return int(d.Uvarint()) }

func (d stateDec) violation() fairness.Violation {
	return fairness.Violation{
		Axiom:    fairness.Axiom(d.count()),
		Subjects: readIDs[string](d),
		Detail:   d.String(),
		Severity: d.Float64(),
	}
}

func (d stateDec) violations() []fairness.Violation {
	return readList(d, minViolationBytes, d.violation)
}

func (d stateDec) pairs() [][2]string {
	return readList(d, 2*minStringBytes, func() [2]string { return [2]string{d.String(), d.String()} })
}

// DecodeState parses an image written by Encode. It verifies the CRC before
// anything else, bounds every count by the bytes that remain, and rejects
// trailing bytes and non-canonical encodings.
func DecodeState(data []byte) (*State, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("audit: state image of %d bytes", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errors.New("audit: state image checksum mismatch")
	}
	if body[0] != stateFormat {
		return nil, fmt.Errorf("audit: state image format %d, want %d", body[0], stateFormat)
	}
	d := stateDec{wal.NewDec(body[1:])}
	s := &State{
		ConfigSig:     d.String(),
		Cursors:       readList(d, 1, d.Uvarint),
		EventPos:      d.count(),
		Ax1Violations: d.violations(),
		Ax1Pairs:      d.pairs(),
		Ax2Violations: d.violations(),
		Ax2Pairs:      d.pairs(),
		Ax3Violations: readMap[model.TaskID](d, 1, d.violations),
		Ax3Checked:    readMap[model.TaskID](d, 1, d.count),
		Ax4Violations: readMap[model.WorkerID](d, minViolationBytes, d.violation),
		Ax4Eligible:   readIDs[model.WorkerID](d),
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("audit: state image: %w", err)
		}
		return nil, errors.New("audit: state image: trailing bytes")
	}
	return s, nil
}

// LoadState reads the auditor state a checkpoint manifest names and checks
// it was saved under cfg — everything a warm start needs that does not
// depend on the store or the event log, so a caller can run it alongside
// their recovery. Any error — no state recorded (a checkpoint taken before
// the first audit), a missing or damaged sidecar, an image of another
// format, a different config — means the caller cold-starts.
func LoadState(dir string, man *store.Manifest, cfg fairness.Config) (*State, error) {
	if man.AuditFile == "" {
		return nil, errors.New("audit: checkpoint carries no auditor state")
	}
	data, err := os.ReadFile(filepath.Join(dir, man.AuditFile))
	if err != nil {
		return nil, fmt.Errorf("audit: read state: %w", err)
	}
	s, err := DecodeState(data)
	if err != nil {
		return nil, err
	}
	if s.ConfigSig != ConfigSig(cfg) {
		return nil, errors.New("audit: state was saved under a different audit config")
	}
	return s, nil
}
