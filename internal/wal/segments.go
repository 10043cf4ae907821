package wal

import (
	"fmt"
	"io"
	"os"
)

// Exported segment-level access to a WAL directory: enough for an external
// tailer (internal/replica) to ship a live log without re-implementing the
// directory layout or the frame scan. Reader (reader.go) remains the whole-
// log replay path; Segments/SegmentReader expose the per-segment structure —
// which files exist, which are sealed, and incremental reads from a byte
// offset so the active segment can be polled as it grows.

// SegmentInfo describes one on-disk segment file.
type SegmentInfo struct {
	// Ordinal is the segment's position in the log (ascending; appends go
	// to the highest ordinal — every lower ordinal is sealed).
	Ordinal int
	// Path is the segment file's location.
	Path string
	// Size is the file's byte length at listing time. For the highest
	// ordinal this is a lower bound: the writer may still be appending.
	Size int64
}

// Segments lists a WAL directory's segment files in log order. A missing
// directory lists as an empty log, matching OpenDir.
func Segments(dir string) ([]SegmentInfo, error) {
	ords, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(ords))
	for _, n := range ords {
		p := segPath(dir, n)
		fi, err := os.Stat(p)
		if err != nil {
			if os.IsNotExist(err) {
				// Raced a truncation; the segment is gone, skip it.
				continue
			}
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		out = append(out, SegmentInfo{Ordinal: n, Path: p, Size: fi.Size()})
	}
	return out, nil
}

// SegmentReader iterates the records of a single segment file starting at
// a byte offset — the polling read of a live log tail. Unlike Reader, a
// torn frame is not latched as damage: Next returns io.EOF and Offset
// stays at the start of the incomplete frame, so the caller re-opens at
// the same offset after the writer finishes (or repairs) it.
type SegmentReader struct {
	data []byte
	off  int64
}

// OpenSegmentReader opens one segment for reading from the given byte
// offset (0 reads the whole segment). The file is snapshotted in memory at
// open time: records appended afterwards are picked up by the next open.
func OpenSegmentReader(path string, offset int64) (*SegmentReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read segment: %w", err)
	}
	if offset < 0 || offset > int64(len(data)) {
		return nil, fmt.Errorf("wal: segment offset %d out of range [0,%d]", offset, len(data))
	}
	return &SegmentReader{data: data, off: offset}, nil
}

// NewSegmentReader reads a segment image already in memory from its start.
func NewSegmentReader(data []byte) *SegmentReader { return &SegmentReader{data: data} }

// Next returns the next record, or io.EOF when no complete valid frame
// remains at the current offset (clean end of the snapshot, a frame still
// being appended, or a corrupt one — Offset distinguishes a clean end).
func (r *SegmentReader) Next() (key uint64, payload []byte, err error) {
	if r.off >= int64(len(r.data)) {
		return 0, nil, io.EOF
	}
	frame, next, ok := nextFrame(r.data, r.off)
	if !ok {
		return 0, nil, io.EOF
	}
	k, rest, ok := recordKey(frame)
	if !ok {
		return 0, nil, io.EOF
	}
	r.off = next
	return k, rest, nil
}

// Offset returns the byte position after the last complete record read —
// the resume point for the next OpenSegmentReader over the same file.
func (r *SegmentReader) Offset() int64 { return r.off }

// Clean reports whether the reader consumed its snapshot exactly to the
// end: false after io.EOF means a partial or invalid frame sits at Offset.
func (r *SegmentReader) Clean() bool { return r.off == int64(len(r.data)) }

// Close releases the segment buffer.
func (r *SegmentReader) Close() error {
	r.data = nil
	return nil
}
