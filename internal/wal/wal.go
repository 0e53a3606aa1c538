// Package wal is a segmented, CRC32C-framed, fsync-batched write-ahead
// log. Records are opaque payloads framed as [u32 length][u32 crc32c]
// [payload] and numbered by a monotonically increasing LSN starting at 1;
// frames are appended to segment files named <first-LSN-hex>.wal that
// roll at a size threshold and are deleted wholesale once a snapshot
// covers them (CompactBefore).
//
// Durability is group-committed: appenders enqueue batches and block on a
// Ticket while a single writer goroutine gathers everything queued,
// writes it with one fsync, and releases every waiter — so the fsync cost
// amortizes across all concurrent appenders, not per record.
//
// Open repairs the log before handing it back: the tail segment is
// scanned frame by frame and truncated at the first torn or
// CRC-mismatching frame (the normal crash artifact), while corruption in
// a non-tail segment stops replay at the last valid record — everything
// after it is dropped and counted, never silently served.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hrtsched/internal/stats"
)

const (
	segmentMagic = "hrtwal01"
	headerSize   = 16 // magic (8) + base LSN (8)
	frameHeader  = 8  // payload length (4) + crc32c (4)
	segSuffix    = ".wal"

	// MaxRecordBytes bounds one payload; a longer length field in a frame
	// is treated as corruption, so garbage cannot force a huge read.
	MaxRecordBytes = 16 << 20

	// maxGroup caps how many queued append requests one fsync covers.
	maxGroup = 512
	// queueDepth bounds the writer queue.
	queueDepth = 1024
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options parameterizes Open. Zero fields take defaults.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// FS is the filesystem to write through; default OSFS.
	FS FS
	// SegmentBytes is the roll threshold; default 4 MiB.
	SegmentBytes int64
	// BaseLSN is the first LSN to assign when the directory holds no
	// valid records (default 1). A caller whose snapshot outruns a torn
	// log wipes the stale segments and reopens with BaseLSN just past the
	// snapshot, so already-covered LSNs are never reassigned.
	BaseLSN uint64
}

func (o *Options) fillDefaults() {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.BaseLSN == 0 {
		o.BaseLSN = 1
	}
}

// OpenReport summarizes the repairs Open performed.
type OpenReport struct {
	// LastLSN is the last valid record found (0 for an empty log).
	LastLSN uint64 `json:"last_lsn"`
	// TruncatedBytes counts bytes amputated from torn or corrupt frames.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// DroppedSegments counts whole segments discarded because they sat
	// after a corrupt frame or a hole in the LSN chain.
	DroppedSegments int `json:"dropped_segments"`
}

// Stats is a point-in-time snapshot of the log.
type Stats struct {
	Segments     int
	Bytes        int64
	LastLSN      uint64 // last LSN assigned to an append
	SyncedLSN    uint64 // last LSN known durable
	Appends      int64  // records appended this session
	Batches      int64  // group commits this session
	Fsyncs       int64
	AppendErrors int64
	// FsyncLatencyUs is a log-scale histogram of fsync latencies.
	FsyncLatencyUs *stats.Histogram
}

type segMeta struct {
	base    uint64
	records int64
	bytes   int64
	name    string
}

func (s segMeta) end() uint64 { return s.base + uint64(s.records) - 1 }

type appendReq struct {
	payloads [][]byte
	first    uint64
	done     chan error
}

// Ticket is one in-flight append batch; Wait blocks until the batch is
// durable (fsynced) or failed. Wait may be called at most once.
type Ticket struct {
	// FirstLSN and LastLSN are the LSNs assigned to the batch's records.
	FirstLSN, LastLSN uint64
	done              chan error
}

// Wait blocks until the batch is durable, returning the write error if
// the group commit failed.
func (t Ticket) Wait() error { return <-t.done }

// Log is an open write-ahead log.
type Log struct {
	opts Options

	// mu orders LSN assignment with writer-queue insertion, so channel
	// order always equals LSN order.
	mu      sync.Mutex
	nextLSN uint64
	closed  bool
	ch      chan *appendReq
	done    chan struct{}

	// segMu guards segment metadata, counters, and the failure latch; it
	// is never held while waiting on the queue, so the writer and
	// appenders cannot deadlock through it.
	segMu     sync.Mutex
	segs      []segMeta
	f         File // active segment handle (writer-owned after Open)
	err       error
	syncedLSN uint64
	appends   int64
	batches   int64
	fsyncs    int64
	appendErr int64
	fsyncLat  *stats.Histogram

	buf bytes.Buffer // writer-only frame staging
}

// Open scans dir, repairs the tail, and returns an appendable log plus a
// report of what recovery found. Replay must be called (if at all) before
// the first append.
func Open(opts Options) (*Log, OpenReport, error) {
	opts.fillDefaults()
	if opts.Dir == "" {
		return nil, OpenReport{}, errors.New("wal: Options.Dir is required")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, OpenReport{}, fmt.Errorf("wal: mkdir %s: %w", opts.Dir, err)
	}
	l := &Log{
		opts: opts,
		ch:   make(chan *appendReq, queueDepth),
		done: make(chan struct{}),
		// 1 µs .. 1 s on a log scale: fsync spans tmpfs to spinning rust.
		fsyncLat: stats.NewLogHistogram(1, 1e6, 36),
	}
	rep, err := l.scan()
	if err != nil {
		return nil, rep, err
	}
	l.nextLSN = rep.LastLSN + 1
	if len(l.segs) == 0 && l.nextLSN < opts.BaseLSN {
		l.nextLSN = opts.BaseLSN
		rep.LastLSN = opts.BaseLSN - 1
	}
	l.syncedLSN = rep.LastLSN
	if err := l.openActive(); err != nil {
		return nil, rep, err
	}
	go l.run()
	return l, rep, nil
}

// segPath returns the path of the segment with the given name.
func (l *Log) segPath(name string) string { return filepath.Join(l.opts.Dir, name) }

func segName(base uint64) string { return fmt.Sprintf("%016x%s", base, segSuffix) }

// scan validates every segment in LSN order, truncating the first invalid
// frame and dropping everything after it.
func (l *Log) scan() (OpenReport, error) {
	var rep OpenReport
	names, err := l.opts.FS.ReadDir(l.opts.Dir)
	if err != nil {
		return rep, fmt.Errorf("wal: list %s: %w", l.opts.Dir, err)
	}
	type cand struct {
		base uint64
		name string
	}
	var cands []cand
	for _, name := range names {
		base, ok := parseSegName(name)
		if ok {
			cands = append(cands, cand{base, name})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].base < cands[j].base })

	corrupted := false
	for i, cd := range cands {
		last := i == len(cands)-1
		if corrupted || (len(l.segs) > 0 && cd.base != l.segs[len(l.segs)-1].end()+1) {
			// Past a corrupt frame — or past a hole in the LSN chain —
			// records are unreachable by replay; drop them loudly.
			corrupted = true
			rep.DroppedSegments++
			if err := l.opts.FS.Remove(l.segPath(cd.name)); err != nil {
				return rep, fmt.Errorf("wal: drop unreachable segment %s: %w", cd.name, err)
			}
			continue
		}
		meta, truncated, ok, err := l.scanSegment(cd.name, cd.base)
		if err != nil {
			return rep, err
		}
		rep.TruncatedBytes += truncated
		if !ok && !last {
			corrupted = true
		}
		l.segs = append(l.segs, meta)
		if meta.records > 0 {
			rep.LastLSN = meta.end()
		} else if len(l.segs) == 1 {
			rep.LastLSN = meta.base - 1
		}
	}
	return rep, nil
}

// scanSegment walks one segment's frames, truncating the file at the
// first invalid one. ok reports whether the whole file was valid.
func (l *Log) scanSegment(name string, base uint64) (segMeta, int64, bool, error) {
	path := l.segPath(name)
	f, err := l.opts.FS.Open(path)
	if err != nil {
		return segMeta{}, 0, false, fmt.Errorf("wal: open %s: %w", name, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return segMeta{}, 0, false, fmt.Errorf("wal: read %s: %w", name, err)
	}
	valid := int64(0)
	records := int64(0)
	if len(data) >= headerSize &&
		string(data[:8]) == segmentMagic &&
		binary.LittleEndian.Uint64(data[8:16]) == base {
		valid = headerSize
		for {
			_, _, next := nextFrame(data, valid)
			if next < 0 {
				break
			}
			valid = next
			records++
		}
	}
	truncated := int64(len(data)) - valid
	if truncated > 0 {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return segMeta{}, 0, false, fmt.Errorf("wal: truncate %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return segMeta{}, 0, false, fmt.Errorf("wal: sync %s: %w", name, err)
		}
	}
	if err := f.Close(); err != nil {
		return segMeta{}, 0, false, fmt.Errorf("wal: close %s: %w", name, err)
	}
	return segMeta{base: base, records: records, bytes: valid, name: name},
		truncated, truncated == 0, nil
}

// nextFrame validates the frame at off and returns its payload and the
// next offset, or next < 0 when the frame is torn, corrupt, or absent.
func nextFrame(data []byte, off int64) (length int, payload []byte, next int64) {
	if off+frameHeader > int64(len(data)) {
		return 0, nil, -1
	}
	n := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > MaxRecordBytes {
		return 0, nil, -1
	}
	end := off + frameHeader + int64(n)
	if end > int64(len(data)) {
		return 0, nil, -1
	}
	p := data[off+frameHeader : end]
	if crc32.Checksum(p, castagnoli) != crc {
		return 0, nil, -1
	}
	return int(n), p, end
}

// openActive opens the newest segment for appending (creating the first
// one for an empty log) and repairs a missing header.
func (l *Log) openActive() error {
	if len(l.segs) == 0 {
		l.segs = append(l.segs, segMeta{base: l.nextLSN, name: segName(l.nextLSN)})
		f, err := l.opts.FS.Create(l.segPath(l.segs[0].name))
		if err != nil {
			return fmt.Errorf("wal: create segment: %w", err)
		}
		l.f = f
		return l.writeHeader(&l.segs[0])
	}
	active := &l.segs[len(l.segs)-1]
	f, err := l.opts.FS.Open(l.segPath(active.name))
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	l.f = f
	if active.bytes < headerSize {
		// The header itself was torn off; rewrite it in place.
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: reset active segment: %w", err)
		}
		return l.writeHeader(active)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: seek active segment: %w", err)
	}
	return nil
}

func (l *Log) writeHeader(seg *segMeta) error {
	var hdr [headerSize]byte
	copy(hdr[:8], segmentMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seg.base)
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	seg.bytes = headerSize
	return nil
}

// Append appends one payload and blocks until it is durable.
func (l *Log) Append(payload []byte) (uint64, error) {
	t, err := l.AppendBatch([][]byte{payload})
	if err != nil {
		return 0, err
	}
	return t.FirstLSN, t.Wait()
}

// AppendBatch assigns LSNs to the payloads and enqueues them for the
// writer; the returned Ticket's Wait blocks until the whole batch is
// durable. Batches from concurrent callers share fsyncs (group commit).
func (l *Log) AppendBatch(payloads [][]byte) (Ticket, error) {
	if len(payloads) == 0 {
		return Ticket{}, errors.New("wal: empty batch")
	}
	for _, p := range payloads {
		if len(p) == 0 || len(p) > MaxRecordBytes {
			return Ticket{}, fmt.Errorf("wal: payload size %d outside (0,%d]", len(p), MaxRecordBytes)
		}
	}
	if err := l.failedErr(); err != nil {
		return Ticket{}, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	req := &appendReq{payloads: payloads, first: l.nextLSN, done: make(chan error, 1)}
	l.nextLSN += uint64(len(payloads))
	// Enqueue under mu so queue order equals LSN order; a full queue
	// blocks here, back-pressuring all appenders.
	l.ch <- req
	l.mu.Unlock()
	return Ticket{
		FirstLSN: req.first,
		LastLSN:  req.first + uint64(len(payloads)) - 1,
		done:     req.done,
	}, nil
}

// run is the writer loop: block for one request, gather everything else
// queued, commit the group with a single fsync.
func (l *Log) run() {
	for {
		req, ok := <-l.ch
		if !ok {
			break
		}
		batch := []*appendReq{req}
	gather:
		for len(batch) < maxGroup {
			select {
			case r, more := <-l.ch:
				if !more {
					l.writeBatch(batch)
					batch = nil
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		if batch != nil {
			l.writeBatch(batch)
		} else {
			break
		}
	}
	l.segMu.Lock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.segMu.Unlock()
	close(l.done)
}

func (l *Log) writeBatch(batch []*appendReq) {
	if err := l.failedErr(); err != nil {
		failAll(batch, err)
		return
	}
	l.segMu.Lock()
	active := &l.segs[len(l.segs)-1]
	needRoll := active.bytes >= l.opts.SegmentBytes && active.records > 0
	f := l.f
	l.segMu.Unlock()

	if needRoll {
		if err := l.roll(batch[0].first); err != nil {
			l.fail(err, batch)
			return
		}
		l.segMu.Lock()
		f = l.f
		l.segMu.Unlock()
	}

	l.buf.Reset()
	records := int64(0)
	last := uint64(0)
	var hdr [frameHeader]byte
	for _, r := range batch {
		for _, p := range r.payloads {
			binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, castagnoli))
			l.buf.Write(hdr[:])
			l.buf.Write(p)
			records++
		}
		last = r.first + uint64(len(r.payloads)) - 1
	}
	if _, err := f.Write(l.buf.Bytes()); err != nil {
		l.fail(fmt.Errorf("wal: write: %w", err), batch)
		return
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync: %w", err), batch)
		return
	}
	latUs := float64(time.Since(t0).Nanoseconds()) / 1e3

	l.segMu.Lock()
	seg := &l.segs[len(l.segs)-1]
	seg.bytes += int64(l.buf.Len())
	seg.records += records
	l.appends += records
	l.batches++
	l.fsyncs++
	l.fsyncLat.Add(latUs)
	l.syncedLSN = last
	l.segMu.Unlock()

	for _, r := range batch {
		r.done <- nil
	}
}

// roll seals the active segment and starts a new one whose base is the
// next LSN to be written.
func (l *Log) roll(base uint64) error {
	l.segMu.Lock()
	old := l.f
	l.segMu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: close sealed segment: %w", err)
	}
	seg := segMeta{base: base, name: segName(base)}
	f, err := l.opts.FS.Create(l.segPath(seg.name))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.segMu.Lock()
	l.f = f
	l.segs = append(l.segs, seg)
	activePtr := &l.segs[len(l.segs)-1]
	l.segMu.Unlock()
	return l.writeHeader(activePtr)
}

// fail latches the log into a failed state: the current batch and every
// later append report the error, and nothing further touches the disk.
func (l *Log) fail(err error, batch []*appendReq) {
	l.segMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.appendErr += int64(len(batch))
	l.segMu.Unlock()
	failAll(batch, err)
}

func failAll(batch []*appendReq, err error) {
	for _, r := range batch {
		r.done <- err
	}
}

func (l *Log) failedErr() error {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return l.err
}

// Replay streams every valid record with LSN >= fromLSN, in order, to fn.
// It must complete before the first append of the session.
func (l *Log) Replay(fromLSN uint64, fn func(lsn uint64, payload []byte) error) error {
	l.segMu.Lock()
	if l.appends > 0 {
		l.segMu.Unlock()
		return errors.New("wal: Replay after Append")
	}
	segs := append([]segMeta(nil), l.segs...)
	l.segMu.Unlock()

	for _, seg := range segs {
		if seg.records == 0 || seg.end() < fromLSN {
			continue
		}
		f, err := l.opts.FS.Open(l.segPath(seg.name))
		if err != nil {
			return fmt.Errorf("wal: replay open %s: %w", seg.name, err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("wal: replay read %s: %w", seg.name, err)
		}
		off := int64(headerSize)
		for lsn := seg.base; lsn <= seg.end(); lsn++ {
			_, payload, next := nextFrame(data, off)
			if next < 0 {
				return fmt.Errorf("wal: replay: segment %s changed under us at offset %d", seg.name, off)
			}
			off = next
			if lsn < fromLSN {
				continue
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// CompactBefore removes sealed segments every record of which has LSN
// < lsn (typically the latest snapshot LSN + 1). The active segment is
// never removed. Returns the number of segments deleted.
func (l *Log) CompactBefore(lsn uint64) (int, error) {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	removed := 0
	for len(l.segs) > 1 {
		s := l.segs[0]
		covered := s.records == 0 || s.end() < lsn
		if !covered || s.base > lsn {
			break
		}
		if err := l.opts.FS.Remove(l.segPath(s.name)); err != nil {
			return removed, fmt.Errorf("wal: compact %s: %w", s.name, err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	return removed, nil
}

// Rec is one record streamed out of the log by ReadFrom.
type Rec struct {
	LSN     uint64
	Payload []byte
}

// ReadFrom returns up to max records starting at fromLSN, reading only
// frames already covered by a successful group commit. Unlike Replay it is
// safe to call while appends are in flight: segment metadata (advanced
// only after each fsync) bounds how far into a file it will read, so a
// half-written trailing frame is never touched. Used by the replication
// layer to ship committed suffixes to lagging followers.
func (l *Log) ReadFrom(fromLSN uint64, max int) ([]Rec, error) {
	if max <= 0 {
		return nil, nil
	}
	l.segMu.Lock()
	segs := append([]segMeta(nil), l.segs...)
	l.segMu.Unlock()

	var out []Rec
	for _, seg := range segs {
		if seg.records == 0 || seg.end() < fromLSN {
			continue
		}
		f, err := l.opts.FS.Open(l.segPath(seg.name))
		if err != nil {
			return nil, fmt.Errorf("wal: read open %s: %w", seg.name, err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("wal: read %s: %w", seg.name, err)
		}
		off := int64(headerSize)
		for lsn := seg.base; lsn <= seg.end(); lsn++ {
			_, payload, next := nextFrame(data, off)
			if next < 0 {
				return out, fmt.Errorf("wal: read: segment %s invalid at offset %d", seg.name, off)
			}
			off = next
			if lsn < fromLSN {
				continue
			}
			out = append(out, Rec{LSN: lsn, Payload: append([]byte(nil), payload...)})
			if len(out) >= max {
				return out, nil
			}
		}
	}
	return out, nil
}

// TruncateFrom discards every record with LSN >= lsn: whole segments past
// the cut are removed, the segment holding the cut is truncated and
// synced, and the next append is assigned lsn again. The caller must
// guarantee no append is in flight (the replication layer serializes
// follower appends); records already handed to waiters stay valid only
// below the cut. Returns how many records were discarded.
func (l *Log) TruncateFrom(lsn uint64) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	l.segMu.Lock()
	defer l.segMu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if lsn >= l.nextLSN {
		return 0, nil
	}

	var removed int64
	// Drop whole segments whose base is at or past the cut (never the
	// first: the log always keeps an active segment).
	for len(l.segs) > 1 && l.segs[len(l.segs)-1].base >= lsn {
		s := l.segs[len(l.segs)-1]
		if l.f != nil {
			l.f.Close() //nolint:errcheck // about to unlink the file
			l.f = nil
		}
		if err := l.opts.FS.Remove(l.segPath(s.name)); err != nil {
			l.err = fmt.Errorf("wal: truncate remove %s: %w", s.name, err)
			return removed, l.err
		}
		removed += s.records
		l.segs = l.segs[:len(l.segs)-1]
	}

	active := &l.segs[len(l.segs)-1]
	if lsn <= active.base+uint64(active.records)-1 && active.records > 0 {
		// The cut lands inside this segment: walk frames to its offset.
		if l.f != nil {
			l.f.Close() //nolint:errcheck
			l.f = nil
		}
		f, err := l.opts.FS.Open(l.segPath(active.name))
		if err != nil {
			l.err = fmt.Errorf("wal: truncate open %s: %w", active.name, err)
			return removed, l.err
		}
		data, err := io.ReadAll(f)
		if err != nil {
			f.Close()
			l.err = fmt.Errorf("wal: truncate read %s: %w", active.name, err)
			return removed, l.err
		}
		off := int64(headerSize)
		keep := int64(0)
		cut := lsn
		if cut < active.base {
			cut = active.base
		}
		for i := active.base; i < cut; i++ {
			_, _, next := nextFrame(data, off)
			if next < 0 {
				f.Close()
				l.err = fmt.Errorf("wal: truncate: segment %s invalid at offset %d", active.name, off)
				return removed, l.err
			}
			off = next
			keep++
		}
		if err := f.Truncate(off); err != nil {
			f.Close()
			l.err = fmt.Errorf("wal: truncate %s: %w", active.name, err)
			return removed, l.err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			l.err = fmt.Errorf("wal: truncate sync %s: %w", active.name, err)
			return removed, l.err
		}
		f.Close()
		removed += active.records - keep
		active.records = keep
		active.bytes = off
	}

	// Reopen the active segment for appending at its new end.
	if l.f == nil {
		f, err := l.opts.FS.Open(l.segPath(active.name))
		if err != nil {
			l.err = fmt.Errorf("wal: truncate reopen %s: %w", active.name, err)
			return removed, l.err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			l.err = fmt.Errorf("wal: truncate seek %s: %w", active.name, err)
			return removed, l.err
		}
		l.f = f
	}
	end := active.base + uint64(active.records) - 1
	if active.records == 0 {
		end = active.base - 1
	}
	l.nextLSN = end + 1
	if l.syncedLSN > end {
		l.syncedLSN = end
	}
	return removed, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	lastLSN := l.nextLSN - 1
	l.mu.Unlock()
	l.segMu.Lock()
	defer l.segMu.Unlock()
	st := Stats{
		Segments:       len(l.segs),
		LastLSN:        lastLSN,
		SyncedLSN:      l.syncedLSN,
		Appends:        l.appends,
		Batches:        l.batches,
		Fsyncs:         l.fsyncs,
		AppendErrors:   l.appendErr,
		FsyncLatencyUs: l.fsyncLat.Clone(),
	}
	for _, s := range l.segs {
		st.Bytes += s.bytes
	}
	return st
}

// Close flushes queued appends, syncs, and releases the log. Safe to call
// more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.failedErr()
	}
	l.closed = true
	close(l.ch)
	l.mu.Unlock()
	<-l.done
	return l.failedErr()
}

// RemoveAll deletes every segment file in dir (not other files), for
// callers whose snapshot has overtaken a torn log and who are about to
// reopen at a higher BaseLSN. The log must not be open on dir.
func RemoveAll(fs FS, dir string) (int, error) {
	if fs == nil {
		fs = OSFS{}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		if _, ok := parseSegName(name); !ok {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(name, segSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	base, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil || base == 0 {
		return 0, false
	}
	return base, true
}
