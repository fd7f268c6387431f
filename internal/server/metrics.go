package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"brepartition/internal/engine"
	"brepartition/internal/obs"
	"brepartition/internal/wire"
)

// StageBudget returns the named collection's stage-duration histogram
// snapshots, keyed by stage name ("total", "queue", "run", ...). Only
// stages that observed at least one sample appear. It is the
// programmatic twin of the breserved_request_duration_seconds series,
// used by the brebench trace experiment and tests.
func (s *Server) StageBudget(collection string) (map[string]obs.HistSnapshot, error) {
	tn, err := s.tenant(collection)
	if err != nil {
		return nil, err
	}
	out := make(map[string]obs.HistSnapshot, int(obs.NumStages))
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		snap := tn.hist.Hist(st).Snapshot()
		if snap.Count == 0 {
			continue
		}
		out[st.String()] = snap
	}
	return out, nil
}

// counter is a monotonic atomic counter.
type counter struct{ atomic.Int64 }

// routeCounters counts requests per route. The route set is fixed at
// construction (New registers every handler), so increments are plain
// lock-free atomics — concurrent map reads of a map that is never
// written after init are safe, and the hot path shares no mutex.
type routeCounters struct {
	m map[string]*counter
}

func newRouteCounters(routes ...string) routeCounters {
	m := make(map[string]*counter, len(routes))
	for _, r := range routes {
		m[r] = &counter{}
	}
	return routeCounters{m: m}
}

func (rc *routeCounters) inc(route string) {
	if c := rc.m[route]; c != nil {
		c.Add(1)
	}
}

func (rc *routeCounters) snapshot() map[string]int64 {
	out := make(map[string]int64, len(rc.m))
	for k, c := range rc.m {
		out[k] = c.Load()
	}
	return out
}

// metrics is the server's observability state beyond what the engines
// already aggregate.
type metrics struct {
	requests  routeCounters
	deadlines counter // requests answered 504
	reloads   counter // successful hot reloads
	coldErrs  counter // cold-tier builds that failed (collection serves hot)
}

// handleMetrics renders the Prometheus text exposition format by hand —
// the format is trivially stable and a client dependency is not worth a
// new module requirement.
//
// Two views are exposed. The process-level series keep their
// pre-collections names: admission classes, deadlines, reloads, and the
// sums of per-collection maintenance counters; the unlabeled engine and
// index series continue to describe the "default" collection, so
// single-index dashboards keep reading unchanged. The
// per-collection series carry a {collection="name"} label — requests,
// quota sheds and occupancy, engine QPS and latency percentiles, index
// and WAL gauges, and per-shard health ratios — so a multi-tenant
// operator can see exactly which tenant is hot, shedding, or due for
// compaction.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tns := s.sortedTenants()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	emit := func(help, typ, name string, lines ...string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	g := func(name string, v float64) string { return fmt.Sprintf("%s %g", name, v) }

	reqs := s.m.requests.snapshot()
	routes := make([]string, 0, len(reqs))
	for route := range reqs {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	lines := make([]string, len(routes))
	for i, route := range routes {
		lines[i] = fmt.Sprintf(`breserved_requests_total{route=%q} %d`, route, reqs[route])
	}
	emit("Requests received, by route.", "counter", "breserved_requests_total", lines...)

	emit("Requests shed with 429, by admission class.", "counter", "breserved_shed_total",
		fmt.Sprintf(`breserved_shed_total{class="search"} %d`, s.searchGate.shed.Load()),
		fmt.Sprintf(`breserved_shed_total{class="mutation"} %d`, s.mutGate.shed.Load()),
		fmt.Sprintf(`breserved_shed_total{class="admin"} %d`, s.adminGate.shed.Load()))

	emit("Admitted requests currently in flight, by admission class.", "gauge", "breserved_inflight",
		fmt.Sprintf(`breserved_inflight{class="search"} %d`, s.searchGate.inUse()),
		fmt.Sprintf(`breserved_inflight{class="mutation"} %d`, s.mutGate.inUse()),
		fmt.Sprintf(`breserved_inflight{class="admin"} %d`, s.adminGate.inUse()))

	// Sums across collections: the process-level view of maintenance
	// (identical to the old single-index series when only the default
	// collection exists).
	var mSweeps, mCompactions, mErrs uint64
	for _, tn := range tns {
		ms := tn.mnt.Stats()
		mSweeps += ms.Sweeps
		mCompactions += ms.Compactions
		mErrs += ms.Errors
	}

	// The unlabeled engine and index series describe the default
	// collection — the pre-collections contract.
	var st engine.Stats
	var defN, defLive int
	var defVersion uint64
	var defWAL int64
	if tn, err := s.tenant(wire.DefaultCollection); err == nil {
		st = tn.eng.Stats()
		hd := tn.col.Handle
		defN, defLive, defVersion, defWAL = hd.N(), hd.Live(), hd.Version(), hd.WALSize()
	}

	emit("Engine scheduler backlog: submitted queries not yet running.", "gauge",
		"breserved_queue_depth", g("breserved_queue_depth", float64(st.QueueDepth)))
	emit("Engine queries currently executing.", "gauge",
		"breserved_engine_inflight", g("breserved_engine_inflight", float64(st.InFlight)))
	emit("Requests that missed their deadline (504).", "counter",
		"breserved_deadline_total", g("breserved_deadline_total", float64(s.m.deadlines.Load())))

	emit("Completed engine queries (errors included).", "counter",
		"breserved_engine_queries_total", g("breserved_engine_queries_total", float64(st.Queries)))
	emit("Engine queries that returned an error.", "counter",
		"breserved_engine_errors_total", g("breserved_engine_errors_total", float64(st.Errors)))
	emit("Mutations routed through the engine.", "counter",
		"breserved_engine_mutations_total", g("breserved_engine_mutations_total", float64(st.Mutations)))
	emit("Completed queries per second of engine wall time.", "gauge",
		"breserved_engine_qps", g("breserved_engine_qps", st.QPS))
	emit("Engine latency reservoir percentiles, in seconds.", "summary", "breserved_engine_latency_seconds",
		fmt.Sprintf(`breserved_engine_latency_seconds{quantile="0.5"} %g`, st.P50.Seconds()),
		fmt.Sprintf(`breserved_engine_latency_seconds{quantile="0.99"} %g`, st.P99.Seconds()))

	emit("Successful hot snapshot reloads.", "counter",
		"breserved_reload_total", g("breserved_reload_total", float64(s.m.reloads.Load())))
	emit("Ids ever assigned by the default index.", "gauge",
		"breserved_index_ids", g("breserved_index_ids", float64(defN)))
	emit("Live (non-tombstoned) points in the default index.", "gauge",
		"breserved_index_live", g("breserved_index_live", float64(defLive)))
	emit("Default index mutation counter (WAL LSN after recovery).", "gauge",
		"breserved_index_version", g("breserved_index_version", float64(defVersion)))
	emit("Default index live write-ahead-log bytes.", "gauge",
		"breserved_wal_bytes", g("breserved_wal_bytes", float64(defWAL)))

	emit("Maintainer health sweeps completed.", "counter",
		"breserved_maintain_sweeps_total", g("breserved_maintain_sweeps_total", float64(mSweeps)))
	emit("Shard compactions performed by the maintainers and /admin/compact sweeps.", "counter",
		"breserved_maintain_compactions_total", g("breserved_maintain_compactions_total", float64(mCompactions)))
	emit("Shard compactions that failed.", "counter",
		"breserved_maintain_errors_total", g("breserved_maintain_errors_total", float64(mErrs)))

	// Per-collection series.
	reqLines := make([]string, 0, len(tns))
	shedLines := make([]string, 0, len(tns))
	quotaLines := make([]string, 0, len(tns))
	qpsLines := make([]string, 0, len(tns))
	latLines := make([]string, 0, 2*len(tns))
	idLines := make([]string, 0, len(tns))
	liveLines := make([]string, 0, len(tns))
	verLines := make([]string, 0, len(tns))
	walLines := make([]string, 0, len(tns))
	var shardLive, shardTail []string
	coldEnabled := make([]string, 0, len(tns))
	var coldHit, coldFaults, coldPruned, coldResident, coldFallbacks []string
	for _, tn := range tns {
		name := tn.col.Name
		est := tn.eng.Stats()
		hd := tn.col.Handle
		enabled := 0
		if hd.ColdTierEnabled() {
			enabled = 1
		}
		coldEnabled = append(coldEnabled, fmt.Sprintf(`breserved_coldtier_enabled{collection=%q} %d`, name, enabled))
		if cst, ok := hd.ColdStats(); ok {
			coldHit = append(coldHit, fmt.Sprintf(`breserved_coldtier_cache_hit_rate{collection=%q} %g`, name, cst.Pager.HitRate()))
			coldFaults = append(coldFaults, fmt.Sprintf(`breserved_coldtier_faulted_pages_total{collection=%q} %d`, name, cst.Pager.Faults))
			coldPruned = append(coldPruned, fmt.Sprintf(`breserved_coldtier_pruned_fraction{collection=%q} %g`, name, cst.PrunedFraction()))
			coldResident = append(coldResident, fmt.Sprintf(`breserved_coldtier_resident_bytes{collection=%q} %d`, name, cst.ResidentBytes))
			coldFallbacks = append(coldFallbacks, fmt.Sprintf(`breserved_coldtier_stale_fallbacks_total{collection=%q} %d`, name, hd.ColdFallbacks()))
		}
		reqLines = append(reqLines, fmt.Sprintf(`breserved_collection_requests_total{collection=%q} %d`, name, tn.requests.Load()))
		shedLines = append(shedLines, fmt.Sprintf(`breserved_quota_shed_total{collection=%q} %d`, name, tn.quotaShed.Load()))
		inUse := 0
		if tn.quota != nil {
			inUse = tn.quota.inUse()
		}
		quotaLines = append(quotaLines, fmt.Sprintf(`breserved_quota_inflight{collection=%q} %d`, name, inUse))
		qpsLines = append(qpsLines, fmt.Sprintf(`breserved_collection_qps{collection=%q} %g`, name, est.QPS))
		latLines = append(latLines,
			fmt.Sprintf(`breserved_collection_latency_seconds{collection=%q,quantile="0.5"} %g`, name, est.P50.Seconds()),
			fmt.Sprintf(`breserved_collection_latency_seconds{collection=%q,quantile="0.99"} %g`, name, est.P99.Seconds()))
		idLines = append(idLines, fmt.Sprintf(`breserved_collection_ids{collection=%q} %d`, name, hd.N()))
		liveLines = append(liveLines, fmt.Sprintf(`breserved_collection_live{collection=%q} %d`, name, hd.Live()))
		verLines = append(verLines, fmt.Sprintf(`breserved_collection_version{collection=%q} %d`, name, hd.Version()))
		walLines = append(walLines, fmt.Sprintf(`breserved_collection_wal_bytes{collection=%q} %d`, name, hd.WALSize()))
		for _, h := range hd.Health() {
			shardLive = append(shardLive, fmt.Sprintf(`breserved_shard_live_ratio{collection=%q,shard="%d"} %g`, name, h.Shard, h.LiveRatio()))
			shardTail = append(shardTail, fmt.Sprintf(`breserved_shard_tail_ratio{collection=%q,shard="%d"} %g`, name, h.Shard, h.TailRatio()))
		}
	}
	emit("Requests routed to each collection.", "counter", "breserved_collection_requests_total", reqLines...)
	emit("Requests shed by a collection's admission quota.", "counter", "breserved_quota_shed_total", shedLines...)
	emit("Requests holding a collection quota in-flight slot.", "gauge", "breserved_quota_inflight", quotaLines...)
	emit("Per-collection completed queries per second of engine wall time.", "gauge", "breserved_collection_qps", qpsLines...)
	emit("Per-collection engine latency percentiles, in seconds.", "summary", "breserved_collection_latency_seconds", latLines...)
	emit("Per-collection ids ever assigned.", "gauge", "breserved_collection_ids", idLines...)
	emit("Per-collection live (non-tombstoned) points.", "gauge", "breserved_collection_live", liveLines...)
	emit("Per-collection mutation counter (WAL LSN after recovery).", "gauge", "breserved_collection_version", verLines...)
	emit("Per-collection live write-ahead-log bytes.", "gauge", "breserved_collection_wal_bytes", walLines...)
	emit("Per-shard live/resident point ratio (compaction health input).", "gauge",
		"breserved_shard_live_ratio", shardLive...)
	emit("Per-shard fraction of points appended since the last rebuild.", "gauge",
		"breserved_shard_tail_ratio", shardTail...)

	// Stage-timing histograms: per collection × pipeline stage, populated
	// from traced requests (total durations are observed for every
	// search-class request regardless of tracing). Stages that have not
	// observed a sample are omitted to keep the exposition compact.
	var histLines []string
	for _, tn := range tns {
		name := tn.col.Name
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			snap := tn.hist.Hist(st).Snapshot()
			if snap.Count == 0 {
				continue
			}
			for i, ub := range obs.BucketLadder {
				histLines = append(histLines, fmt.Sprintf(
					`breserved_request_duration_seconds_bucket{collection=%q,stage=%q,le="%g"} %d`,
					name, st.String(), ub, snap.Cumulative[i]))
			}
			histLines = append(histLines,
				fmt.Sprintf(`breserved_request_duration_seconds_bucket{collection=%q,stage=%q,le="+Inf"} %d`,
					name, st.String(), snap.Count),
				fmt.Sprintf(`breserved_request_duration_seconds_sum{collection=%q,stage=%q} %g`,
					name, st.String(), snap.Sum),
				fmt.Sprintf(`breserved_request_duration_seconds_count{collection=%q,stage=%q} %d`,
					name, st.String(), snap.Count))
		}
	}
	emit("Search request duration by pipeline stage, in seconds.", "histogram",
		"breserved_request_duration_seconds", histLines...)

	// Cold-tier serving: per-collection paged-storage health (series only
	// for collections with tiers attached).
	emit("Whether the collection's exact searches route through its cold tier.", "gauge",
		"breserved_coldtier_enabled", coldEnabled...)
	emit("Cold-tier block-cache hits per page touch.", "gauge",
		"breserved_coldtier_cache_hit_rate", coldHit...)
	emit("Cold-tier pages decoded from disk.", "counter",
		"breserved_coldtier_faulted_pages_total", coldFaults...)
	emit("Fraction of points rejected by the compressed-domain pass before any page fault.", "gauge",
		"breserved_coldtier_pruned_fraction", coldPruned...)
	emit("Cold-tier resident bytes: VA approximation plus decoded-block cache.", "gauge",
		"breserved_coldtier_resident_bytes", coldResident...)
	emit("Cold searches served hot because a shard's tier was missing or stale.", "counter",
		"breserved_coldtier_stale_fallbacks_total", coldFallbacks...)
	emit("Cold-tier enablement failures (the collection serves hot).", "counter",
		"breserved_coldtier_errors_total", g("breserved_coldtier_errors_total", float64(s.m.coldErrs.Load())))
}
