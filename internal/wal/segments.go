package wal

import (
	"fmt"
	"io"
	"os"
)

// Segment-level access to a WAL: Segments lists the files of a directory
// (bench tooling sizes logs with it), and SegmentReader scans one segment
// image held in memory — the store's checkpoint snapshot is written as
// such an image. Reader (reader.go) is the one replay path over a
// directory's records.

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

// SegmentReader iterates the records of one segment image in memory. Unlike
// Reader, a torn frame is not latched as damage: Next returns io.EOF,
// Offset stays at the start of the incomplete frame, and Clean reports
// false.
type SegmentReader struct {
	data []byte
	off  int64
}

// NewSegmentReader reads a segment image already in memory from its start.
func NewSegmentReader(data []byte) *SegmentReader { return &SegmentReader{data: data} }

// Next returns the next record, or io.EOF when no complete valid frame
// remains at the current offset (a clean end of the image, or a partial or
// corrupt frame — Clean distinguishes the two).
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

// Offset returns the byte position after the last complete record read.
func (r *SegmentReader) Offset() int64 { return r.off }

// Clean reports whether the reader consumed its image exactly to the end:
// false after io.EOF means a partial or invalid frame sits at Offset.
func (r *SegmentReader) Clean() bool { return r.off == int64(len(r.data)) }
