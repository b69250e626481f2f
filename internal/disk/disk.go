// Package disk simulates the disk-resident storage layer of the paper's
// BB-forest. The paper evaluates on a SATA SSD and reports "I/O cost" as
// the number of page reads per query; this package reproduces exactly that
// accounting model: points live in fixed-size pages laid out in a chosen
// order (the PCCP-aligned leaf order of the reference BB-tree, §6), and a
// per-query Session counts the *distinct* pages touched, so that candidate
// reuse across subspaces — the point of PCCP — shows up as fewer reads.
//
// Storage is a single row-major float64 arena in slot (layout) order: a
// page is literally a contiguous arena segment, so candidate refinement
// over a leaf cluster streams cache-linearly and can hand whole slot runs
// to the batched divergence kernels (kernel.FlatBlock views). Sessions are
// poolable: Reset rebinds one to a store with epoch-stamped page tracking,
// so steady-state queries do per-query I/O accounting without allocating.
//
// Two backings are provided: the in-memory page arena (used by benchmarks)
// and a real file with per-page checksums (used by the persistence tests
// and the failure-injection suite). Both share the same layout and
// accounting code paths.
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync/atomic"
	"time"

	"brepartition/internal/kernel"
	"brepartition/internal/stampset"
)

// Config describes the simulated device.
type Config struct {
	// PageSize is the page capacity in bytes (paper Table 4: 32–128 KB).
	PageSize int
	// IOPS models random-read operations per second for the latency
	// estimate; 0 disables latency modelling (the paper's SSD argument in
	// §5.1: at mainstream SSD IOPS the I/O time is negligible).
	IOPS float64
}

// DefaultConfig mirrors the paper's smallest configuration.
func DefaultConfig() Config { return Config{PageSize: 32 << 10, IOPS: 50_000} }

const pointHeaderBytes = 8 // float64s only; ids tracked by layout

// Errors reported by the store.
var (
	ErrBadPage     = errors.New("disk: page checksum mismatch")
	ErrOutOfRange  = errors.New("disk: point id out of range")
	ErrBadLayout   = errors.New("disk: layout is not a permutation")
	ErrEmptyStore  = errors.New("disk: store has no points")
	errBadGeometry = errors.New("disk: invalid page geometry")
)

// Store is a page-organized collection of n d-dimensional points.
type Store struct {
	cfg     Config
	dim     int
	n       int
	perPage int   // points per page
	slotOf  []int // point id -> slot (position in layout order)
	idAt    []int // slot -> point id
	// arena holds the coordinates in slot-major row order:
	// arena[slot*dim : (slot+1)*dim] is the point stored at slot.
	// nil when the store is paged (pager != nil): rows are then faulted
	// from the backing file through the decoded-block cache on demand.
	arena []float64
	pager *pager

	// screen holds the refine screen's build-time scalars
	// (kernel.ScreenPoint), indexed by point id, for the kernel named
	// screenKern; see SetScreen. Points appended later have none. They
	// are derived from the coordinates and never written to a file.
	screen     []kernel.ScreenPoint
	screenKern string

	// totalPageReads accumulates across all sessions; atomic because
	// concurrent queries each run their own session against one store.
	totalPageReads atomic.Int64
}

// NewStore builds an in-memory store over points, placing them on pages in
// the order given by layout (layout[slot] = point id). A nil layout means
// identity. Point coordinates are copied into the store's flat arena; the
// caller's slices are not retained.
func NewStore(points [][]float64, layout []int, cfg Config) (*Store, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrEmptyStore
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("disk: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if cfg.PageSize <= 0 {
		return nil, errBadGeometry
	}
	perPage := cfg.PageSize / (dim * pointHeaderBytes)
	if perPage < 1 {
		perPage = 1
	}
	if layout == nil {
		layout = make([]int, n)
		for i := range layout {
			layout[i] = i
		}
	}
	if len(layout) != n {
		return nil, ErrBadLayout
	}
	slotOf := make([]int, n)
	for i := range slotOf {
		slotOf[i] = -1
	}
	idAt := make([]int, n)
	arena := make([]float64, n*dim)
	for slot, id := range layout {
		if id < 0 || id >= n || slotOf[id] != -1 {
			return nil, ErrBadLayout
		}
		slotOf[id] = slot
		idAt[slot] = id
		copy(arena[slot*dim:], points[id])
	}
	return &Store{
		cfg:     cfg,
		dim:     dim,
		n:       n,
		perPage: perPage,
		slotOf:  slotOf,
		idAt:    idAt,
		arena:   arena,
	}, nil
}

// Dim returns the point dimensionality.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of points.
func (s *Store) Len() int { return s.n }

// PointsPerPage returns how many points share one page.
func (s *Store) PointsPerPage() int { return s.perPage }

// NumPages returns the page count.
func (s *Store) NumPages() int { return (s.n + s.perPage - 1) / s.perPage }

// PageOf returns the page number holding point id.
func (s *Store) PageOf(id int) int {
	if id < 0 || id >= s.n {
		panic(ErrOutOfRange)
	}
	return s.slotOf[id] / s.perPage
}

// Address returns the (page, offsetInPage) address of point id, the
// P.address the paper stores in every BB-tree leaf.
func (s *Store) Address(id int) (page, offset int) {
	slot := s.slotOf[id]
	return slot / s.perPage, slot % s.perPage
}

// Slot returns the layout position of point id — consecutive slots are
// physically adjacent in the arena, the property the run-batched
// refinement exploits.
func (s *Store) Slot(id int) int {
	if id < 0 || id >= s.n {
		panic(ErrOutOfRange)
	}
	return s.slotOf[id]
}

// IDAtSlot returns the point id stored at a layout slot.
func (s *Store) IDAtSlot(slot int) int { return s.idAt[slot] }

// rowAt returns the arena view of the point at slot.
func (s *Store) rowAt(slot int) []float64 {
	off := slot * s.dim
	return s.arena[off : off+s.dim : off+s.dim]
}

// SlotBlock returns the points stored at slots [lo, hi) as one contiguous
// row-major block — a zero-copy kernel.FlatBlock view into the arena. No
// I/O is charged; use Session.SlotBlock on query paths. On a paged store
// this is a construction/ground-truth path (it faults the pages without
// accounting and panics on I/O or checksum failure).
func (s *Store) SlotBlock(lo, hi int) kernel.FlatBlock {
	if s.pager != nil {
		blk, _, err := s.pagedSlotBlock(lo, hi, nil, nil)
		if err != nil {
			panic(err)
		}
		return blk
	}
	return kernel.FlatBlock{Data: s.arena[lo*s.dim : hi*s.dim], Dim: s.dim, N: hi - lo}
}

// SetScreen installs the refine screen's per-point scalars computed under
// kern, indexed by point id (pts[id] for id < len(pts)). It is a build or
// load step: call it before the store is shared with searches.
func (s *Store) SetScreen(kern kernel.Kernel, pts []kernel.ScreenPoint) {
	s.screen, s.screenKern = pts, kern.Name()
}

// ScreenPoints returns the per-point screen scalars installed for kern,
// indexed by point id, or nil when none were computed under that kernel.
// Ids at or beyond the returned length (points appended after the build)
// have no scalars.
func (s *Store) ScreenPoints(kern kernel.Kernel) []kernel.ScreenPoint {
	if s.screen == nil || s.screenKern != kern.Name() {
		return nil
	}
	return s.screen
}

// TotalPageReads returns the store-lifetime page read count across all
// sessions.
func (s *Store) TotalPageReads() int64 { return s.totalPageReads.Load() }

// Append adds a point at the tail of the layout (the overflow region of
// the last page, or a fresh page), supporting incremental inserts. The new
// point's id is the previous Len(). The coordinates are copied into the
// arena.
func (s *Store) Append(p []float64) error {
	if s.pager != nil {
		return errors.New("disk: append to a paged (read-only) store")
	}
	if len(p) != s.dim {
		return fmt.Errorf("disk: append dim %d, want %d", len(p), s.dim)
	}
	slot := s.n
	s.arena = append(s.arena, p...)
	s.slotOf = append(s.slotOf, slot)
	s.idAt = append(s.idAt, s.n)
	s.n++
	return nil
}

// RawPoint returns point id without any I/O accounting (for construction
// and for ground-truth scans that the paper does not charge I/O to). The
// returned slice is a read-only view into the store's arena.
func (s *Store) RawPoint(id int) []float64 {
	if id < 0 || id >= s.n {
		panic(ErrOutOfRange)
	}
	if s.pager != nil {
		row, err := s.pagedRow(s.slotOf[id], nil, false)
		if err != nil {
			panic(err)
		}
		return row
	}
	return s.rowAt(s.slotOf[id])
}

// Session is a per-query I/O accounting context: the first access to each
// page within a session costs one read; later accesses are buffer hits,
// reproducing the paper's per-query distinct-page I/O metric.
//
// Sessions are reusable: Reset rebinds one to a store and starts a new
// accounting epoch without releasing the page-tracking memory, so pooled
// query contexts account I/O with zero steady-state allocation.
type Session struct {
	store *Store
	seen  stampset.Set // pages read in the current epoch
	reads int
	hits  int

	// Paged-store state. err is sticky for the query: a fault failure
	// (I/O error or first-touch checksum mismatch) records here and the
	// accessor returns a zero row/block so refinement loops stay simple;
	// callers check Err() once at the end. admitted is the per-query
	// cache-admission budget consumed so far.
	err          error
	pageFaults   int
	cacheHits    int
	admitted     int
	blockScratch []float64
	zeroRow      []float64
}

// NewSession starts a fresh per-query accounting context.
func (s *Store) NewSession() *Session {
	sess := &Session{}
	sess.Reset(s)
	return sess
}

// Reset rebinds the session to store and starts a new accounting epoch,
// reusing the page-tracking buffer. It must be called before a session is
// reused for a new query (NewSession calls it internally).
func (sess *Session) Reset(s *Store) {
	sess.store = s
	sess.reads = 0
	sess.hits = 0
	sess.err = nil
	sess.pageFaults = 0
	sess.cacheHits = 0
	sess.admitted = 0
	sess.seen.Begin(s.NumPages())
}

// Store returns the store the session is bound to.
func (ss *Session) Store() *Store { return ss.store }

// charge records a touch of page, returning true when it cost a read.
func (sess *Session) charge(page int) bool {
	if sess.seen.TryMark(page) {
		sess.reads++
		sess.store.totalPageReads.Add(1)
		return true
	}
	sess.hits++
	return false
}

// Point fetches point id, charging a page read if its page was not yet
// touched in this session. The returned slice is a view into the arena
// (or the decoded page block on a paged store; a fault failure records in
// Err and yields a zero row).
func (ss *Session) Point(id int) []float64 {
	slot := ss.store.slotOf[id]
	if ss.store.pager != nil {
		row, err := ss.store.pagedRow(slot, ss, true)
		if err != nil {
			return ss.failRow(err)
		}
		return row
	}
	ss.charge(slot / ss.store.perPage)
	return ss.store.rowAt(slot)
}

// failRow records a sticky fault error and returns a zeroed row so the
// caller's distance loop can finish; Err surfaces the failure.
func (ss *Session) failRow(err error) []float64 {
	if ss.err == nil {
		ss.err = err
	}
	if len(ss.zeroRow) != ss.store.dim {
		ss.zeroRow = make([]float64, ss.store.dim)
	}
	return ss.zeroRow
}

// Err returns the first paged-I/O failure hit by this session's accessors
// since Reset, or nil. In-memory stores never set it.
func (ss *Session) Err() error { return ss.err }

// PageFaults returns how many real page decodes this session triggered
// (paged stores only; distinct from the accounting PageReads metric).
func (ss *Session) PageFaults() int { return ss.pageFaults }

// CacheHits returns how many of this session's page touches were served
// from the decoded-block cache (paged stores only).
func (ss *Session) CacheHits() int { return ss.cacheHits }

// PrefetchPageAsync enqueues page for background faulting on a paged
// store (advisory; dropped when the queue is full). No-op otherwise.
func (ss *Session) PrefetchPageAsync(page int) {
	if ss.store.pager != nil {
		ss.store.pager.prefetchAsync(page)
	}
}

// Prefetch charges the read for the page containing id (if new) without
// returning data — used when a leaf cluster is loaded wholesale. Unlike
// Point it does not count repeat touches as buffer hits.
func (ss *Session) Prefetch(id int) {
	if ss.seen.TryMark(ss.store.PageOf(id)) {
		ss.reads++
		ss.store.totalPageReads.Add(1)
	}
}

// SlotBlock returns the contiguous rows at slots [lo, hi), charging every
// page the range touches (first touch per session, as always). It is the
// batched analogue of Point for slot runs discovered during refinement.
func (ss *Session) SlotBlock(lo, hi int) kernel.FlatBlock {
	if ss.store.pager != nil {
		blk, scratch, err := ss.store.pagedSlotBlock(lo, hi, ss, ss.blockScratch)
		ss.blockScratch = scratch
		if err != nil {
			if ss.err == nil {
				ss.err = err
			}
			need := (hi - lo) * ss.store.dim
			if cap(ss.blockScratch) < need {
				ss.blockScratch = make([]float64, need)
			}
			zero := ss.blockScratch[:need]
			for i := range zero {
				zero[i] = 0
			}
			return kernel.FlatBlock{Data: zero, Dim: ss.store.dim, N: hi - lo}
		}
		return blk
	}
	for page := lo / ss.store.perPage; page <= (hi-1)/ss.store.perPage; page++ {
		ss.charge(page)
	}
	return ss.store.SlotBlock(lo, hi)
}

// PageReads returns the distinct pages read so far in this session.
func (ss *Session) PageReads() int { return ss.reads }

// BufferHits returns how many accesses were served without a read.
func (ss *Session) BufferHits() int { return ss.hits }

// Latency estimates the time the session's reads would take on the
// configured device (reads / IOPS).
func (ss *Session) Latency() time.Duration {
	if ss.store.cfg.IOPS <= 0 {
		return 0
	}
	sec := float64(ss.reads) / ss.store.cfg.IOPS
	return time.Duration(sec * float64(time.Second))
}

// ---------------------------------------------------------------------------
// File persistence with per-page checksums.
// ---------------------------------------------------------------------------

// fileMagic identifies the page-file format.
const fileMagic uint32 = 0xB4EF0127

// WriteFile persists the store to path in page order. Each page is written
// as [crc32][payload], where the payload is the page's points as
// little-endian float64s; a trailing header records geometry.
func (s *Store) WriteFile(path string) (err error) {
	if s.pager != nil {
		return errors.New("disk: WriteFile on a paged (read-only) store")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	pageBuf := make([]byte, 0, s.perPage*s.dim*8)
	for p := 0; p < s.NumPages(); p++ {
		pageBuf = pageBuf[:0]
		lo := p * s.perPage
		hi := lo + s.perPage
		if hi > s.n {
			hi = s.n
		}
		// Pages are contiguous arena segments; serialize the rows directly.
		for _, v := range s.arena[lo*s.dim : hi*s.dim] {
			pageBuf = binary.LittleEndian.AppendUint64(pageBuf, math.Float64bits(v))
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(pageBuf))
		if _, err := f.Write(crc[:]); err != nil {
			return err
		}
		if _, err := f.Write(pageBuf); err != nil {
			return err
		}
	}
	// Trailer: magic, n, dim, perPage, layout permutation.
	tr := make([]byte, 0, 16+8*s.n)
	tr = binary.LittleEndian.AppendUint32(tr, fileMagic)
	tr = binary.LittleEndian.AppendUint32(tr, uint32(s.n))
	tr = binary.LittleEndian.AppendUint32(tr, uint32(s.dim))
	tr = binary.LittleEndian.AppendUint32(tr, uint32(s.perPage))
	for _, id := range s.idAt {
		tr = binary.LittleEndian.AppendUint64(tr, uint64(id))
	}
	if _, err := f.Write(tr); err != nil {
		return err
	}
	var trLen [8]byte
	binary.LittleEndian.PutUint64(trLen[:], uint64(len(tr)))
	_, err = f.Write(trLen[:])
	return err
}

// OpenFile opens a store previously written by WriteFile. Since the cold
// tier landed, this is a paged open: only the trailer (geometry + layout)
// is read here — O(manifest), not O(data) — and page checksums are
// verified lazily, each on its first fault. Truncation is still rejected
// at open (a size check against the manifest geometry). The default pager
// keeps every faulted page resident (unbounded cache), matching the old
// fully-loaded behaviour once warm; use OpenPaged to bound the cache. The
// geometry comes from the file; cfg controls only the latency model.
func OpenFile(path string, cfg Config) (*Store, error) {
	return OpenPaged(path, cfg, PagerConfig{})
}
