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
	"sync/atomic"
)

// Visited is the visited set: fingerprint membership with
// insert-if-absent, one type for every engine, worker count and budget,
// safe for concurrent use. It is a sharded open-addressing table of
// 8-byte fingerprints (the hot table) over sorted run files on disk,
// Mace/DiVinE style.
//
// The shard is chosen by the low fingerprint bits, the probe position
// by higher bits, so the two are uncorrelated. A probe loads its
// shard's slots atomically and takes no lock: a hit (the common case in
// a dense state graph) returns there. A miss takes the shard's mutex,
// probes the shard again, then the runs, and inserts. A flush takes
// every shard mutex in index order, so the runs change only while no
// insert sits between its hot-table miss and its own insert. The
// lock-free path trusts only hits, which a flush never invalidates (a
// flushed fingerprint moves into a run), so dedup is exact at every
// worker count.
//
// With no budget (Config.MemLimit 0) the hot table grows as it fills
// and nothing is flushed. Under a budget it is sized from the budget,
// and the insert that brings it to flushAt fingerprints flushes them,
// sorted, as one run file. Each run carries a small in-RAM sparse index
// (one fingerprint per 4KiB block of 512 fingerprints) and a bloom
// filter, so a probe costs at most one block read per run, and maxRuns
// runs are k-way merged into one (compaction).
type Visited struct {
	st        *Store
	shards    []fpShard
	shardMask uint64
	// flushAt is the hot-table fingerprint count at which an insert
	// flushes the table; 0 means no budget. hot counts the hot table's
	// fingerprints under a budget: inserts add to it under their shard
	// mutex, a flush resets it under all of them.
	flushAt int64
	hot     atomic.Int64
	// runs (newest last) and nextRun change only under every shard
	// mutex, so a probe holding any one of them reads the runs safely.
	runs    []*fpRun
	nextRun int64
}

const (
	// runBlockRecs is the sparse-index granularity: records per indexed
	// block (512 records = 4KiB reads).
	runBlockRecs = 512
	// maxRuns triggers compaction: probes cost at most this many reads.
	maxRuns = 8
	// minHotSlots floors a budgeted hot table so tiny MemLimits still
	// work, and minShardSlots floors each of its shards.
	minHotSlots   = 1 << 12
	minShardSlots = 16
)

// zeroFPSubstitute replaces a fingerprint of exactly 0 in the hot
// table, where 0 marks an empty slot. Mapping 0 to a fixed odd constant
// merges it with that constant's states — indistinguishable from an
// ordinary 2⁻⁶⁴ collision.
const zeroFPSubstitute = 0x9e3779b97f4a7c15

// fpSlots is one immutable-size open-addressing array of fingerprints.
// Slots hold 0 (empty) or a fingerprint; only a flush empties them.
type fpSlots struct {
	arr  []atomic.Uint64
	mask uint64
}

// fpShard is one lock shard of the hot table. Readers load the current
// slots atomically and probe lock-free; writers insert (and grow) under
// the mutex and publish new arrays with an atomic pointer store. A
// published array is at most half full, so lock-free probes always find
// an empty slot or the fingerprint.
type fpShard struct {
	mu    sync.Mutex
	slots atomic.Pointer[fpSlots]
	used  int      // guarded by mu
	_     [40]byte // pad to a cache line to avoid false sharing between shards
}

// newVisited builds st's visited set: shards for st's worker count,
// sized and flushed by st's budget.
func newVisited(st *Store) *Visited {
	nShards := 64
	for nShards < st.cfg.Workers*8 {
		nShards <<= 1
	}
	v := &Visited{st: st, shards: make([]fpShard, nShards), shardMask: uint64(nShards - 1)}
	perShard := 256
	if st.cfg.MemLimit > 0 {
		// Half the budget feeds the hot table; the frontier shards
		// split the rest. The table flushes at half its slots, which
		// are sized at 32 budget bytes each: at explorebench's 1 MiB
		// ceiling that keeps visited spills, and so the run path, in
		// every round. A shard that fills faster than the others grows.
		budget := int64(st.cfg.MemLimit) / 2
		slots := int64(minHotSlots)
		for slots*2*16 <= budget {
			slots <<= 1
		}
		v.flushAt = slots / 2
		perShard = max(int(slots)/nShards, minShardSlots)
	}
	for i := range v.shards {
		v.shards[i].slots.Store(newFPSlots(perShard))
	}
	return v
}

func newFPSlots(n int) *fpSlots {
	return &fpSlots{arr: make([]atomic.Uint64, n), mask: uint64(n - 1)}
}

// Insert records fp; fresh reports that it was absent. err is an I/O
// failure of a run probe or a flush, which only a budget makes
// possible; the engines propagate it. depth is ignored and improved is
// always false: both remain only because the explorebench module calls
// Insert with this signature.
func (v *Visited) Insert(fp uint64, _ int32) (fresh, improved bool, err error) {
	if fp == 0 {
		fp = zeroFPSubstitute
	}
	sh := &v.shards[fp&v.shardMask]
	h := fp >> 7
	s := sh.slots.Load()
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		x := s.arr[i].Load()
		if x == fp {
			return false, false, nil
		}
		if x == 0 {
			break
		}
	}
	sh.mu.Lock()
	fresh, err = v.insertLocked(sh, fp, h)
	sh.mu.Unlock()
	if fresh && v.flushAt > 0 && v.hot.Load() >= v.flushAt {
		err = v.flush()
	}
	return fresh, false, err
}

// insertLocked probes sh again (it may have grown or been flushed since
// the lock-free probe), then the runs, and inserts fp when both miss.
// Called with sh.mu held.
func (v *Visited) insertLocked(sh *fpShard, fp, h uint64) (bool, error) {
	s := sh.slots.Load()
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		switch s.arr[i].Load() {
		case fp:
			return false, nil
		case 0:
			if found, err := v.runLookup(fp); found || err != nil {
				return false, err
			}
			s.arr[i].Store(fp)
			sh.used++
			if v.flushAt > 0 {
				v.hot.Add(1)
			}
			if uint64(sh.used)*2 >= uint64(len(s.arr)) {
				sh.grow(s)
			}
			return true, nil
		}
	}
}

// grow doubles the shard's slot array and publishes it. Called with mu
// held; the old array stays valid for concurrent lock-free readers.
func (sh *fpShard) grow(old *fpSlots) {
	ns := newFPSlots(2 * len(old.arr))
	for i := range old.arr {
		fp := old.arr[i].Load()
		if fp == 0 {
			continue
		}
		for j := (fp >> 7) & ns.mask; ; j = (j + 1) & ns.mask {
			if ns.arr[j].Load() == 0 {
				ns.arr[j].Store(fp)
				break
			}
		}
	}
	sh.slots.Store(ns)
}

func (v *Visited) lockAll() {
	for i := range v.shards {
		v.shards[i].mu.Lock()
	}
}

func (v *Visited) unlockAll() {
	for i := range v.shards {
		v.shards[i].mu.Unlock()
	}
}

// hotFPs returns the hot table's fingerprints, sorted. Called with
// every shard mutex held.
func (v *Visited) hotFPs() []uint64 {
	n := 0
	for i := range v.shards {
		n += v.shards[i].used
	}
	fps := make([]uint64, 0, n)
	for i := range v.shards {
		s := v.shards[i].slots.Load()
		for j := range s.arr {
			if fp := s.arr[j].Load(); fp != 0 {
				fps = append(fps, fp)
			}
		}
	}
	slices.Sort(fps)
	return fps
}

// flush writes the hot table as a new run and empties it, compacting
// when the run count reaches maxRuns. It holds every shard mutex, and
// does nothing when another insert has flushed first.
func (v *Visited) flush() error {
	v.lockAll()
	defer v.unlockAll()
	if v.hot.Load() < v.flushAt {
		return nil
	}
	fps := v.hotFPs()
	sp := v.st.cfg.Trace.StartArgs("store.spill", "visited spill",
		map[string]any{"records": len(fps)})
	defer sp.End()
	run, err := v.newRun(fps)
	if err != nil {
		return err
	}
	v.runs = append(v.runs, run)
	for i := range v.shards {
		sh := &v.shards[i]
		s := sh.slots.Load()
		for j := range s.arr {
			// An atomic store is a locked instruction; most slots are
			// already empty and need none.
			if s.arr[j].Load() != 0 {
				s.arr[j].Store(0)
			}
		}
		sh.used = 0
	}
	v.hot.Store(0)
	v.st.stats.spills.Add(1)
	v.st.stats.runs.Store(int64(len(v.runs)))
	if len(v.runs) >= maxRuns {
		return v.compact()
	}
	return nil
}

// Len returns the number of distinct fingerprints inserted.
func (v *Visited) Len() int64 {
	v.lockAll()
	defer v.unlockAll()
	var n int64
	for i := range v.shards {
		n += int64(v.shards[i].used)
	}
	for _, r := range v.runs {
		n += r.count
	}
	return n
}

// WriteFPFile writes the whole set, runs and hot table, as one sorted
// run at path (the checkpoint format, loadable by LoadFPFile), without
// changing it.
func (v *Visited) WriteFPFile(path string) error {
	v.lockAll()
	defer v.unlockAll()
	next, closeAll, err := v.mergeStream(true)
	if err != nil {
		return err
	}
	defer closeAll()
	_, _, err = writeFPStream(path, next)
	return err
}

// LoadFPFile adds a run written by WriteFPFile to the set by inserting
// its fingerprints, so under a budget they flush as inserts do.
func (v *Visited) LoadFPFile(path string) error {
	return readFPRun(path, func(fp uint64) error {
		_, _, err := v.Insert(fp, 0)
		return err
	})
}

// Close deletes the set's run files.
func (v *Visited) Close() error {
	v.lockAll()
	defer v.unlockAll()
	for _, r := range v.runs {
		r.f.Close()
		os.Remove(r.path)
		v.st.stats.diskBytes.Add(-r.bytes)
	}
	v.runs = nil
	return nil
}

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

// runLookup probes every run, newest first.
func (v *Visited) runLookup(fp uint64) (bool, error) {
	for i := len(v.runs) - 1; i >= 0; i-- {
		if found, err := v.runs[i].lookup(fp); found || err != nil {
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
// within one block read with ReadAt. Probes of different shards run
// concurrently, so each reads into its own stack buffer.
func (r *fpRun) lookup(fp uint64) (bool, error) {
	if r.count == 0 || !r.bloomHas(fp) {
		return false, nil
	}
	// Last block whose first fingerprint is <= fp.
	b := sort.Search(len(r.index), func(i int) bool { return r.index[i] > fp }) - 1
	if b < 0 {
		return false, nil
	}
	first := int64(b) * runBlockRecs
	n := min(r.count-first, runBlockRecs)
	var buf [runBlockRecs * fpRecSize]byte
	block := buf[:n*fpRecSize]
	if _, err := r.f.ReadAt(block, fpHeaderSize+first*fpRecSize); err != nil {
		return false, fmt.Errorf("store: probing run %s: %w", r.path, err)
	}
	at := func(i int) uint64 { return binary.LittleEndian.Uint64(block[i*fpRecSize:]) }
	lo := sort.Search(int(n), func(i int) bool { return at(i) >= fp })
	return int64(lo) < n && at(lo) == fp, nil
}

func (v *Visited) runPath() string {
	v.nextRun++
	return fmt.Sprintf("%s/run-%06d.fp", v.st.dir, v.nextRun)
}

// newRun writes fps as a run file and opens it for probing.
func (v *Visited) newRun(fps []uint64) (*fpRun, error) {
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

func (v *Visited) runIter(r *fpRun) (*mergeIter, error) {
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
// interleaving the sorted hot fingerprints. Runs and the hot table are
// disjoint (a fingerprint is inserted exactly once), so no duplicate
// resolution is needed. Called with every shard mutex held.
func (v *Visited) mergeStream(includeHot bool) (func() (uint64, bool, error), func(), error) {
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

// compact merges every run into one and deletes the inputs. Called
// from flush, with every shard mutex held.
func (v *Visited) compact() error {
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
func (v *Visited) indexRun(r *fpRun) error {
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
