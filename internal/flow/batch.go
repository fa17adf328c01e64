package flow

import (
	"errors"

	"postopc/internal/cache"
	"postopc/internal/geom"
	"postopc/internal/litho"
	"postopc/internal/obs"
	"postopc/internal/par"
)

// This file is the one window path of extraction (ExtractGates,
// ExtractInstance) and full-chip ORC (VerifyChip). Windows — gate windows
// or ORC tiles — are grouped into batches of max(Batch, 1), and the
// batches fan out over par.ForEachWorker. Each batch
//
//  1. clips, canonicalizes and signs its members;
//  2. reserves them in the pattern cache;
//  3. runs OPC for each leader;
//  4. images all its leaders in one stageImageBatch call;
//  5. runs contour/profile, or the ORC scans;
//  6. completes its leader tickets.
//
// After the fan-out, one pass in ascending order resolves the waits of
// non-leader members, collects the artifacts and writes the ledger
// records.
//
// Determinism: every float comes from the stage functions (stages.go) in
// canonical window coordinates, members write index-addressed slots, and
// the error returned is the lowest-index member's. Batches are claimed in
// ascending order and a failed batch stops further claims, so every batch
// below the lowest failing one has run. The output is byte-identical at
// any worker count and batch size, cache on or off.
//
// Deadlock freedom: a batch never blocks on a ticket. It reserves, reads
// the results of ready hits, and completes every leader ticket it claimed
// before it returns. Waits on results still in flight happen only after
// the fan-out, when this run holds no reservation, and every leader they
// wait on — in this run or a concurrent one — is inside a running batch
// that completes it without blocking.

// windowJob is what tells gate windows and ORC tiles apart on the path.
// Each method handles one member by index; the job keeps the members'
// geometry in index-addressed slots of its own.
type windowJob[A any] interface {
	// prep clips and canonicalizes member i. It returns false, with or
	// without an error, when the member has nothing to compute; prep errors
	// are returned as they are.
	prep(i int, rec *obs.WindowRecord) (bool, error)
	// sign returns the cache signature of a prepped member.
	sign(i int) cache.Key
	// mask runs member i's OPC and returns the mask to image and its
	// canonical window bounds.
	mask(i int, rec *obs.WindowRecord) ([]geom.Polygon, geom.Rect, error)
	// finish turns member i's corner images into its artifact.
	finish(i int, imgs []*litho.Image, rec *obs.WindowRecord) A
	// wrap names member i in an error of its computation.
	wrap(i int, err error) error
}

// member is one window's passage through the path.
type member[A any] struct {
	rec     *obs.WindowRecord // ledger record (nil when no journal)
	prepErr error             // prep failure, in final form
	err     error             // computation failure, unwrapped as the cache publishes it
	art     A
	ticket  cache.Ticket
	wait    bool // non-leader ticket, resolved after the fan-out
}

// reserve claims the member's signature in the cache and reports whether
// the member must be computed here: it leads the computation, or no cache
// is attached. A ready hit takes the published result; a member whose
// leader is still in flight keeps its ticket and waits after the fan-out.
// The ledger class mirrors cache.Do: leader = miss, ready = hit, blocked
// single-flight = wait.
func (m *member[A]) reserve(c *cache.Store, key cache.Key) bool {
	if c == nil {
		return true
	}
	m.ticket = c.Reserve(key)
	switch {
	case m.ticket.Leader():
		recordClass(m.rec, "miss")
		return true
	case m.ticket.Ready():
		recordClass(m.rec, "hit")
		m.resolve()
	default:
		recordClass(m.rec, "wait")
		m.wait = true
	}
	return false
}

// resolve takes the published result of the member's ticket.
func (m *member[A]) resolve() {
	v, err := m.ticket.Wait()
	m.art, _ = v.(A)
	m.err = err
}

// windowRun is one fan-out of the window path.
type windowRun[A any] struct {
	job     windowJob[A]
	env     *stageEnv
	cache   *cache.Store
	corners []litho.Corner
	kind    string // ledger record kind
	size    int    // members per batch
	parent  obs.SpanID
	members []member[A]
}

// errBatchFailed stops further batch claims once a batch holds a failed
// member; the error reported is chosen afterwards, by index.
var errBatchFailed = errors.New("flow: batch failed")

// runWindows runs n members of job through the path in batches of
// max(batch, 1) on at most workers workers. It returns the artifacts by
// index (zero for members with nothing to compute) and the lowest-index
// member's error: a prep error as it is, a computation error wrapped by
// the job. parent is the telemetry span the stage spans nest under.
func runWindows[A any](f *Flow, env *stageEnv, job windowJob[A], n, batch, workers int, kind string, corners []litho.Corner, parent obs.SpanID) ([]A, error) {
	r := &windowRun[A]{
		job: job, env: env, cache: f.Cache, corners: corners, kind: kind,
		size: max(batch, 1), parent: parent, members: make([]member[A], n),
	}
	// The pool can only return errBatchFailed; the members say which
	// window failed, and waits may still fail below.
	_ = par.ForEachWorker((n+r.size-1)/r.size, r.batch, par.Workers(workers), par.Obs(f.Obs))
	arts := make([]A, n)
	var first error
	for i := range r.members {
		m := &r.members[i]
		if m.wait {
			m.resolve()
		}
		env.jrn.Record(m.rec)
		arts[i] = m.art
		if first != nil {
			continue
		}
		if m.prepErr != nil {
			first = m.prepErr
		} else if m.err != nil {
			first = job.wrap(i, m.err)
		}
	}
	return arts, first
}

// batch runs batch b on pool slot w: steps 1–6 of the path.
func (r *windowRun[A]) batch(w, b int) error {
	env, lo := r.env, b*r.size
	hi := min(lo+r.size, len(r.members))
	var leaders []int
	for i := lo; i < hi; i++ {
		m := &r.members[i]
		if env.jrn != nil {
			m.rec = &obs.WindowRecord{Index: i, Kind: r.kind, Class: "compute", Batch: b, Worker: w}
		}
		live, err := r.job.prep(i, m.rec)
		if !live {
			m.prepErr = err
			continue
		}
		// Without a cache, signatures are computed only for the ledger.
		var key cache.Key
		if r.cache != nil || m.rec != nil {
			key = r.job.sign(i)
			recordSig(m.rec, key)
		}
		if m.reserve(r.cache, key) {
			leaders = append(leaders, i)
		}
	}
	masks := make([][]geom.Polygon, 0, len(leaders))
	bounds := make([]geom.Rect, 0, len(leaders))
	live := make([]int, 0, len(leaders))
	for _, i := range leaders {
		mask, bnd, err := r.job.mask(i, r.members[i].rec)
		if err != nil {
			r.members[i].err = err
			continue
		}
		masks, bounds, live = append(masks, mask), append(bounds, bnd), append(live, i)
	}
	if len(live) > 0 {
		// One imaging call for the batch: each member's image_ns is the
		// call's duration.
		sp := env.obs.StartChild("stage.image", r.parent)
		t0 := env.met.image.StartTimer()
		imgs, errs := stageImageBatch(env, masks, bounds, r.corners)
		imageNS := env.met.image.TimedSince(t0)
		sp.End()
		for k, i := range live {
			m := &r.members[i]
			m.rec.Observe(obs.StageImage, imageNS)
			if errs[k] != nil {
				m.err = errs[k]
				continue
			}
			m.art = r.job.finish(i, imgs[k], m.rec)
		}
	}
	if r.cache != nil {
		for _, i := range leaders {
			// Publish the computation's own (unwrapped) error, exactly as
			// cache.Do does; waiters wrap it with their own names.
			r.members[i].ticket.Complete(r.members[i].art, r.members[i].err)
		}
	}
	for i := lo; i < hi; i++ {
		if m := &r.members[i]; m.prepErr != nil || m.err != nil {
			return errBatchFailed
		}
	}
	return nil
}

// stageImageBatch rasterizes and images a set of masks, routing them
// through the verification model's batch entry point when it has one (only
// the fast model does); any other model images each mask on its own.
// When the batch call fails, every mask is imaged again on its own, so
// each window keeps its own error at every batch size; the fallback is
// counted in flow.image_batch_fallbacks_total. The fast model's batch
// fails only on an empty raster, which RasterizeInWindow never makes, so
// only a test model reaches the fallback. Rasters are pooled scratch and
// are recycled before returning, whatever the outcome.
func stageImageBatch(env *stageEnv, masks [][]geom.Polygon, bounds []geom.Rect, corners []litho.Corner) ([][]*litho.Image, []error) {
	n := len(masks)
	imgs := make([][]*litho.Image, n)
	errs := make([]error, n)
	recipe := env.Verify.Recipe()
	rasters := make([]*geom.Raster, n)
	for i := range masks {
		rasters[i] = litho.RasterizeInWindow(masks[i], bounds[i], recipe.PixelNM)
	}
	batched := false
	if bm, ok := env.Verify.(litho.BatchModel); ok {
		out, err := bm.AerialBatch(rasters, corners)
		if err == nil {
			copy(imgs, out)
			batched = true
		} else {
			env.met.imageFallbacks.Inc()
		}
	}
	if !batched {
		for i := range rasters {
			imgs[i], errs[i] = env.Verify.AerialSeries(rasters[i], corners)
		}
	}
	for _, r := range rasters {
		litho.RecycleRaster(r)
	}
	return imgs, errs
}
