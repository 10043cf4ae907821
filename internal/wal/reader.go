package wal

import (
	"fmt"
	"io"
	"os"
)

// Reader iterates every record in a segment directory in append order —
// the one replay path over a directory's records: recovery (store.Open,
// eventlog.OpenDurable) and a replica's catch-up passes. The
// whole current segment is read into memory and frames are sliced out of
// the buffer (an mmap-style zero-copy scan: returned payloads alias the
// segment buffer and must not be retained across Close).
//
// A torn or corrupted frame ends the stream: Next returns io.EOF and
// Damaged reports true, so consumers recover exactly the longest valid
// prefix of the log.
type Reader struct {
	dir     string
	ords    []int
	idx     int    // next ordinal index to load
	data    []byte // current segment buffer
	off     int64
	damaged bool
}

// OpenDir opens a segment directory for reading. A missing directory reads
// as an empty log.
func OpenDir(dir string) (*Reader, error) {
	ords, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	return &Reader{dir: dir, ords: ords}, nil
}

// Next returns the next record's key and payload, or io.EOF at the end of
// the log (including a damaged tail — check Damaged to distinguish).
func (r *Reader) Next() (key uint64, payload []byte, err error) {
	for {
		if r.damaged {
			return 0, nil, io.EOF
		}
		if r.data == nil || r.off >= int64(len(r.data)) {
			if r.off != int64(len(r.data)) {
				r.damaged = true
				return 0, nil, io.EOF
			}
			if r.idx >= len(r.ords) {
				return 0, nil, io.EOF
			}
			data, err := os.ReadFile(segPath(r.dir, r.ords[r.idx]))
			if err != nil {
				return 0, nil, fmt.Errorf("wal: read segment: %w", err)
			}
			r.idx++
			r.data = data
			r.off = 0
			continue
		}
		frame, next, ok := nextFrame(r.data, r.off)
		if !ok {
			r.damaged = true
			return 0, nil, io.EOF
		}
		k, rest, ok := recordKey(frame)
		if !ok {
			r.damaged = true
			return 0, nil, io.EOF
		}
		r.off = next
		return k, rest, nil
	}
}

// Damaged reports whether the stream was cut short by an invalid frame
// (torn tail or corruption) rather than ending cleanly.
func (r *Reader) Damaged() bool { return r.damaged }

// Close releases the segment buffer.
func (r *Reader) Close() error {
	r.data = nil
	r.ords = nil
	return nil
}
