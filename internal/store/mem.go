package store

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the Mem tier: the explorer's historical in-RAM storage,
// extracted behind the VisitedSet/Frontier interfaces. memVisited is
// the serial map (DFS, and the breadth-first engine at one worker);
// memTable is the parallel engine's sharded open-addressing fingerprint
// table; both record each fingerprint's minimum depth for checkpoints.
// memFrontier is the work deque.

// memVisited is the serial map tier: fingerprint → minimum depth.
type memVisited struct {
	m map[uint64]int32
}

func newMemVisited() *memVisited {
	return &memVisited{m: make(map[uint64]int32)}
}

func (v *memVisited) Insert(fp uint64, depth int32) (fresh, improved bool, err error) {
	d, ok := v.m[fp]
	if !ok {
		v.m[fp] = depth
		return true, false, nil
	}
	if depth < d {
		v.m[fp] = depth
		return false, true, nil
	}
	return false, false, nil
}

func (v *memVisited) Len() int64 { return int64(len(v.m)) }

func (v *memVisited) WriteFPFile(path string) error {
	recs := make([]fpRec, 0, len(v.m))
	for fp, d := range v.m {
		recs = append(recs, fpRec{fp: fp, depth: d})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].fp < recs[j].fp })
	_, err := writeFPRun(path, recs)
	return err
}

func (v *memVisited) LoadFPFile(path string) error {
	return readFPRun(path, func(r fpRec) error {
		_, _, err := v.Insert(r.fp, r.depth)
		return err
	})
}

func (v *memVisited) Close() error { return nil }

// zeroFPSubstitute replaces a fingerprint of exactly 0 in the
// open-addressing tables, where 0 marks an empty slot. Mapping 0 to a
// fixed odd constant merges it with that constant's states —
// indistinguishable from an ordinary 2⁻⁶⁴ collision.
const zeroFPSubstitute = 0x9e3779b97f4a7c15

// fpSlots is one immutable-size open-addressing array of fingerprints
// with a parallel minimum-depth array. Slots hold 0 (empty) or a
// fingerprint; entries are never deleted. Writers store the depth
// before publishing the fingerprint, so a reader that observes the
// fingerprint also observes an initialized depth.
type fpSlots struct {
	arr   []atomic.Uint64
	depth []atomic.Int32
	mask  uint64
}

// fpShard is one lock shard of the fingerprint table. Readers load the
// current slots atomically and probe lock-free; writers insert (and
// grow) under the mutex and publish new arrays with an atomic pointer
// store. A published array is at most half full, so lock-free probes
// always find an empty slot or the fingerprint. Depth *improvements*
// (rare) also take the mutex, so they cannot race with grow and lose
// the update.
type fpShard struct {
	mu    sync.Mutex
	slots atomic.Pointer[fpSlots]
	used  int      // guarded by mu
	_     [40]byte // pad to a cache line to avoid false sharing between shards
}

// memTable is the sharded concurrent visited set (the parallel
// engine's). The shard is chosen by the low fingerprint bits, the probe
// position by higher bits, so the two are uncorrelated.
type memTable struct {
	shards    []fpShard
	shardMask uint64
}

func newMemTable(workers int) *memTable {
	nShards := 64
	for nShards < workers*8 {
		nShards <<= 1
	}
	t := &memTable{shards: make([]fpShard, nShards), shardMask: uint64(nShards - 1)}
	for i := range t.shards {
		t.shards[i].slots.Store(newFPSlots(256))
	}
	return t
}

func newFPSlots(n int) *fpSlots {
	return &fpSlots{
		arr:   make([]atomic.Uint64, n),
		depth: make([]atomic.Int32, n),
		mask:  uint64(n - 1),
	}
}

func (t *memTable) Insert(fp uint64, depth int32) (fresh, improved bool, err error) {
	if fp == 0 {
		fp = zeroFPSubstitute
	}
	sh := &t.shards[fp&t.shardMask]
	h := fp >> 7
	// Lock-free fast path: either we find fp (a dedup hit, the common
	// case in a dense state graph) or we hit an empty slot and take the
	// slow path.
	s := sh.slots.Load()
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		v := s.arr[i].Load()
		if v == fp {
			if depth >= s.depth[i].Load() {
				return false, false, nil
			}
			return false, sh.improve(fp, h, depth), nil
		}
		if v == 0 {
			break
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s = sh.slots.Load() // may have grown since the fast path
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		v := s.arr[i].Load()
		if v == fp {
			if depth < s.depth[i].Load() {
				s.depth[i].Store(depth)
				return false, true, nil
			}
			return false, false, nil
		}
		if v == 0 {
			s.depth[i].Store(depth)
			s.arr[i].Store(fp)
			sh.used++
			if uint64(sh.used)*2 >= uint64(len(s.arr)) {
				sh.grow(s)
			}
			return true, false, nil
		}
	}
}

// improve min-merges depth for a present fingerprint under the shard
// mutex (so it cannot race with grow republishing the arrays).
func (sh *fpShard) improve(fp, h uint64, depth int32) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.slots.Load()
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		v := s.arr[i].Load()
		if v == fp {
			if depth < s.depth[i].Load() {
				s.depth[i].Store(depth)
				return true
			}
			return false
		}
		if v == 0 {
			return false
		}
	}
}

// grow doubles the shard's slot array and publishes it. Called with mu
// held; the old array stays valid for concurrent lock-free readers.
func (sh *fpShard) grow(old *fpSlots) {
	ns := newFPSlots(2 * len(old.arr))
	for i := range old.arr {
		v := old.arr[i].Load()
		if v == 0 {
			continue
		}
		d := old.depth[i].Load()
		for j := (v >> 7) & ns.mask; ; j = (j + 1) & ns.mask {
			if ns.arr[j].Load() == 0 {
				ns.depth[j].Store(d)
				ns.arr[j].Store(v)
				break
			}
		}
	}
	sh.slots.Store(ns)
}

func (t *memTable) Len() int64 {
	var n int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += int64(sh.used)
		sh.mu.Unlock()
	}
	return n
}

// collect returns all records sorted by fingerprint. Quiescent callers
// only (the engine's checkpoints are written between rounds).
func (t *memTable) collect() []fpRec {
	recs := make([]fpRec, 0, t.Len())
	for i := range t.shards {
		s := t.shards[i].slots.Load()
		for j := range s.arr {
			if fp := s.arr[j].Load(); fp != 0 {
				recs = append(recs, fpRec{fp: fp, depth: s.depth[j].Load()})
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].fp < recs[j].fp })
	return recs
}

func (t *memTable) WriteFPFile(path string) error {
	_, err := writeFPRun(path, t.collect())
	return err
}

func (t *memTable) LoadFPFile(path string) error {
	return readFPRun(path, func(r fpRec) error {
		_, _, err := t.Insert(r.fp, r.depth)
		return err
	})
}

func (t *memTable) Close() error { return nil }

// memFrontier is the in-RAM work deque. The owner pops oldest-first;
// thieves take the newest half. All operations take the mutex; the owner
// touches it far more often than thieves, so the lock is almost always
// uncontended.
type memFrontier struct {
	mu   sync.Mutex
	buf  []Entry
	head int
}

func (d *memFrontier) Push(e Entry) error {
	d.mu.Lock()
	d.buf = append(d.buf, e)
	d.mu.Unlock()
	return nil
}

func (d *memFrontier) Pop() (Entry, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
		return Entry{}, false, nil
	}
	e := d.buf[d.head]
	d.buf[d.head] = Entry{} // release for GC
	d.head++
	if d.head >= 1024 && d.head*2 >= len(d.buf) {
		n := copy(d.buf, d.buf[d.head:])
		for i := n; i < len(d.buf); i++ {
			d.buf[i] = Entry{}
		}
		d.buf = d.buf[:n]
		d.head = 0
	}
	return e, true, nil
}

func (d *memFrontier) StealHalf() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := len(d.buf) - d.head
	if avail <= 0 {
		return nil
	}
	take := (avail + 1) / 2
	out := make([]Entry, take)
	copy(out, d.buf[len(d.buf)-take:])
	tail := len(d.buf) - take
	for i := tail; i < len(d.buf); i++ {
		d.buf[i] = Entry{}
	}
	d.buf = d.buf[:tail]
	return out
}

func (d *memFrontier) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.buf) - d.head
}

func (d *memFrontier) NeedsPath() bool { return false }

func (d *memFrontier) Snapshot(fn func(Entry) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := d.head; i < len(d.buf); i++ {
		if err := fn(d.buf[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *memFrontier) Close() error { return nil }
