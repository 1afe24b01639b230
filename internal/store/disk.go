package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
)

// diskVisited is the out-of-core visited set: a bounded in-RAM hot
// table of recent fingerprints plus sorted on-disk runs, Mace/DiVinE
// style. Inserts go to the hot table; when it reaches half capacity its
// contents are sorted and flushed as one run file, and when runs
// accumulate they are k-way merged into one (compaction). Membership
// probes check the hot table, then each run newest-first — a bloom
// filter and a sparse block index per run keep a probe to at most one
// 4KiB read per run, and at most maxRuns runs exist at a time.
//
// A single mutex guards everything: the disk tier trades the mem
// table's lock-free probes for bounded memory, which is the right trade
// exactly when the workload is I/O-bound anyway.
type diskVisited struct {
	mu sync.Mutex
	st *Store

	hotFP   []uint64 // open addressing; 0 = empty (zeroFPSubstitute applied)
	hotMask uint64
	hotUsed int
	flushAt int

	runs    []*fpRun
	count   int64
	nextRun int64
	buf     []byte // block read buffer, one probe at a time under mu
}

const (
	// runBlockRecs is the sparse-index granularity: records per indexed
	// block (512 records = 4KiB reads).
	runBlockRecs = 512
	// maxRuns triggers compaction: probes cost at most this many reads.
	maxRuns = 8
	// minHotSlots floors the hot table so tiny MemLimits still work.
	minHotSlots = 1 << 12
)

// fpRun is one immutable sorted run on disk.
type fpRun struct {
	f     *os.File
	path  string
	count int64
	bytes int64
	// index holds the first fingerprint of each runBlockRecs-sized
	// block; bloom is a 2-hash bloom filter over the run's fingerprints.
	index     []uint64
	bloom     []uint64
	bloomMask uint64
}

func newDiskVisited(s *Store, budget int64) (*diskVisited, error) {
	// The table holds 8-byte fingerprints and flushes at half full. It
	// is sized at 32 budget bytes per slot, so it uses a quarter to a
	// half of its share: at explorebench's 1 MiB ceiling that keeps
	// visited spills, and so the run path, in every round.
	slots := int64(minHotSlots)
	for slots*2*16 <= budget {
		slots <<= 1
	}
	v := &diskVisited{
		st:      s,
		hotFP:   make([]uint64, slots),
		hotMask: uint64(slots - 1),
		flushAt: int(slots / 2),
		buf:     make([]byte, runBlockRecs*fpRecSize),
	}
	return v, nil
}

// Insert probes the hot table, then the runs; I/O errors are returned,
// and the engines propagate them. It ignores depth and never reports
// improved; see VisitedSet.
func (v *diskVisited) Insert(fp uint64, _ int32) (fresh, improved bool, err error) {
	if fp == 0 {
		fp = zeroFPSubstitute
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := hotProbe(fp) & v.hotMask; ; i = (i + 1) & v.hotMask {
		switch v.hotFP[i] {
		case fp:
			return false, false, nil
		case 0:
			// Absent from the hot table; fall through to the runs.
			found, err := v.runLookup(fp)
			if err != nil || found {
				return false, false, err
			}
			v.hotFP[i] = fp
			v.hotUsed++
			v.count++
			if v.hotUsed >= v.flushAt {
				return true, false, v.flush()
			}
			return true, false, nil
		}
	}
}

// hotProbe spreads the fingerprint for open addressing (the fp is
// already uniform, but decorrelate from the run order just in case).
func hotProbe(fp uint64) uint64 { return fp * 0x2545f4914f6cdd1d }

// runLookup probes every run, newest first.
func (v *diskVisited) runLookup(fp uint64) (bool, error) {
	for i := len(v.runs) - 1; i >= 0; i-- {
		if found, err := v.runs[i].lookup(v.buf, fp); found || err != nil {
			return found, err
		}
	}
	return false, nil
}

func (r *fpRun) bloomHas(fp uint64) bool {
	h1 := fp * 0x9e3779b97f4a7c15 >> 16
	h2 := fp*0xc2b2ae3d27d4eb4f>>16 | 1
	b1, b2 := h1&r.bloomMask, h2&r.bloomMask
	return r.bloom[b1>>6]&(1<<(b1&63)) != 0 && r.bloom[b2>>6]&(1<<(b2&63)) != 0
}

func (r *fpRun) bloomAdd(fp uint64) {
	h1 := fp * 0x9e3779b97f4a7c15 >> 16
	h2 := fp*0xc2b2ae3d27d4eb4f>>16 | 1
	b1, b2 := h1&r.bloomMask, h2&r.bloomMask
	r.bloom[b1>>6] |= 1 << (b1 & 63)
	r.bloom[b2>>6] |= 1 << (b2 & 63)
}

// lookup probes one run: bloom, sparse index, then a binary search
// within one block read with ReadAt.
func (r *fpRun) lookup(buf []byte, fp uint64) (bool, error) {
	if r.count == 0 || !r.bloomHas(fp) {
		return false, nil
	}
	// Last block whose first fingerprint is <= fp.
	b := sort.Search(len(r.index), func(i int) bool { return r.index[i] > fp }) - 1
	if b < 0 {
		return false, nil
	}
	first := int64(b) * runBlockRecs
	n := r.count - first
	if n > runBlockRecs {
		n = runBlockRecs
	}
	block := buf[:n*fpRecSize]
	if _, err := r.f.ReadAt(block, fpHeaderSize+first*fpRecSize); err != nil {
		return false, fmt.Errorf("store: probing run %s: %w", r.path, err)
	}
	at := func(i int) uint64 { return binary.LittleEndian.Uint64(block[i*fpRecSize:]) }
	lo := sort.Search(int(n), func(i int) bool { return at(i) >= fp })
	return int64(lo) < n && at(lo) == fp, nil
}

// hotFPs returns the hot table's fingerprints, sorted.
func (v *diskVisited) hotFPs() []uint64 {
	fps := make([]uint64, 0, v.hotUsed)
	for _, fp := range v.hotFP {
		if fp != 0 {
			fps = append(fps, fp)
		}
	}
	slices.Sort(fps)
	return fps
}

// flush spills the hot table as a new run and clears it, compacting
// first if the run count is at its bound.
func (v *diskVisited) flush() error {
	fps := v.hotFPs()
	if len(fps) == 0 {
		return nil
	}
	sp := v.st.cfg.Trace.StartArgs("store.spill", "visited spill",
		map[string]any{"records": len(fps)})
	defer sp.End()
	run, err := v.newRun(fps)
	if err != nil {
		return err
	}
	v.runs = append(v.runs, run)
	clear(v.hotFP)
	v.hotUsed = 0
	v.st.stats.spills.Add(1)
	v.st.stats.runs.Store(int64(len(v.runs)))
	if len(v.runs) >= maxRuns {
		return v.compact()
	}
	return nil
}

func (v *diskVisited) runPath() string {
	v.nextRun++
	return fmt.Sprintf("%s/run-%06d.fp", v.st.dir, v.nextRun)
}

// newRun writes fps as a run file and opens it for probing.
func (v *diskVisited) newRun(fps []uint64) (*fpRun, error) {
	path := v.runPath()
	bytes, err := writeFPRun(path, fps)
	if err != nil {
		return nil, err
	}
	r := &fpRun{path: path, count: int64(len(fps)), bytes: bytes}
	for i := 0; i < len(fps); i += runBlockRecs {
		r.index = append(r.index, fps[i])
	}
	r.sizeBloom(int64(len(fps)))
	for _, fp := range fps {
		r.bloomAdd(fp)
	}
	if r.f, err = os.Open(path); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	v.st.stats.diskWritten.Add(bytes)
	v.st.stats.diskBytes.Add(bytes)
	return r, nil
}

// sizeBloom allocates ~8 bits per record (2 hashes → ~2.5% false
// positives), power-of-two words.
func (r *fpRun) sizeBloom(count int64) {
	bits := uint64(1024)
	for bits < uint64(count)*8 {
		bits <<= 1
	}
	r.bloom = make([]uint64, bits/64)
	r.bloomMask = bits - 1
}

// mergeIter streams one run's fingerprints.
type mergeIter struct {
	br   *bufio.Reader
	f    *os.File
	left int64
	cur  uint64
	ok   bool
}

func (v *diskVisited) runIter(r *fpRun) (*mergeIter, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReaderSize(f, fileBufSize)
	if _, err := readFileHeader(br, fpMagic); err != nil {
		f.Close()
		return nil, err
	}
	it := &mergeIter{br: br, f: f, left: r.count}
	if err := it.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return it, nil
}

func (it *mergeIter) advance() error {
	if it.left == 0 {
		it.ok = false
		return nil
	}
	var buf [fpRecSize]byte
	if _, err := io.ReadFull(it.br, buf[:]); err != nil {
		return fmt.Errorf("store: merging run: %w", err)
	}
	it.left--
	it.cur = binary.LittleEndian.Uint64(buf[:])
	it.ok = true
	return nil
}

// mergeStream produces the k-way merge of all runs, optionally
// interleaving the sorted hot fingerprints. Runs are disjoint (a
// fingerprint is inserted exactly once), so no duplicate resolution is
// needed.
func (v *diskVisited) mergeStream(includeHot bool) (func() (uint64, bool, error), func(), error) {
	iters := make([]*mergeIter, 0, len(v.runs))
	for _, r := range v.runs {
		it, err := v.runIter(r)
		if err != nil {
			for _, open := range iters {
				open.f.Close()
			}
			return nil, nil, err
		}
		iters = append(iters, it)
	}
	var hot []uint64
	if includeHot {
		hot = v.hotFPs()
	}
	hi := 0
	next := func() (uint64, bool, error) {
		best := -1
		for i, it := range iters {
			if it.ok && (best < 0 || it.cur < iters[best].cur) {
				best = i
			}
		}
		if hi < len(hot) && (best < 0 || hot[hi] < iters[best].cur) {
			hi++
			return hot[hi-1], true, nil
		}
		if best < 0 {
			return 0, false, nil
		}
		fp := iters[best].cur
		if err := iters[best].advance(); err != nil {
			return 0, false, err
		}
		return fp, true, nil
	}
	closeAll := func() {
		for _, it := range iters {
			it.f.Close()
		}
	}
	return next, closeAll, nil
}

// compact merges every run into one and deletes the inputs.
func (v *diskVisited) compact() error {
	sp := v.st.cfg.Trace.StartArgs("store.compact", "k-way compaction",
		map[string]any{"runs": len(v.runs)})
	defer sp.End()
	next, closeAll, err := v.mergeStream(false)
	if err != nil {
		return err
	}
	path := v.runPath()
	count, bytes, err := writeFPStream(path, next)
	closeAll()
	if err != nil {
		return err
	}
	merged := &fpRun{path: path, count: count, bytes: bytes}
	merged.sizeBloom(count)
	if err := v.indexRun(merged); err != nil {
		return err
	}
	for _, r := range v.runs {
		r.f.Close()
		os.Remove(r.path)
		v.st.stats.diskBytes.Add(-r.bytes)
	}
	v.runs = []*fpRun{merged}
	v.st.stats.compactions.Add(1)
	v.st.stats.runs.Store(1)
	v.st.stats.diskWritten.Add(bytes)
	v.st.stats.diskBytes.Add(bytes)
	return nil
}

// indexRun builds a run's sparse index and bloom filter by scanning its
// file, then opens it for probing. The bloom must already be sized.
func (v *diskVisited) indexRun(r *fpRun) error {
	i := int64(0)
	err := readFPRun(r.path, func(fp uint64) error {
		if i%runBlockRecs == 0 {
			r.index = append(r.index, fp)
		}
		r.bloomAdd(fp)
		i++
		return nil
	})
	if err != nil {
		return err
	}
	if r.f, err = os.Open(r.path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (v *diskVisited) Len() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count
}

// WriteFPFile streams the whole set — runs and hot table — as one
// sorted run (the checkpoint visited format), without mutating
// the live structures.
func (v *diskVisited) WriteFPFile(path string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	next, closeAll, err := v.mergeStream(true)
	if err != nil {
		return err
	}
	defer closeAll()
	_, _, err = writeFPStream(path, next)
	return err
}

// LoadFPFile replaces the set with a checkpoint run by re-inserting its
// fingerprints (they arrive sorted, so spill runs stay sorted chunks).
func (v *diskVisited) LoadFPFile(path string) error {
	return readFPRun(path, func(fp uint64) error {
		_, _, err := v.Insert(fp, 0)
		return err
	})
}

func (v *diskVisited) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, r := range v.runs {
		r.f.Close()
		os.Remove(r.path)
		v.st.stats.diskBytes.Add(-r.bytes)
	}
	v.runs = nil
	return nil
}
