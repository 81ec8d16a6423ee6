package main

import (
	"sort"
	"time"

	"cameo/internal/alloy"
	"cameo/internal/cameo"
	"cameo/internal/dram"
	"cameo/internal/memctrl"
	"cameo/internal/memsys"
	"cameo/internal/metrics"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// sampleEvery is the tracing duty cycle: every call into a layer is
// counted, one memory request (with everything it calls) and one
// workload.Source.Next in sampleEvery is timed. Odd so that it does not
// alias with the power-of-two structure of the simulated machine.
const sampleEvery = 13

var epoch = time.Now()

// clock reads the monotonic clock in nanoseconds.
func clock() int64 { return int64(time.Since(epoch)) }

// calibrateClock returns the cost of one clock read in nanoseconds: the
// median over several batches, so one preempted batch does not skew it.
func calibrateClock() float64 {
	const batch = 200_000
	var costs []float64
	for range 7 {
		start := clock()
		var sink int64
		for range batch {
			sink += clock()
		}
		costs = append(costs, float64(clock()-start)/batch)
		clockSink += sink
	}
	return median(costs)
}

// clockSink keeps the calibration loop's reads from being optimized away.
var clockSink int64

// span accumulates one layer's exact call count and its sampled time.
type span struct {
	calls   uint64 // every call
	sampled uint64 // calls that were timed
	ns      int64  // raw duration of the timed calls
}

func (s *span) add(d int64) {
	s.sampled++
	s.ns += d
}

// cellTrace is the trace of one cell. A sampled memory request sets active,
// so the vm and organization decorators time exactly the calls nested in
// it. Device calls are sampled on their own counter, and only outside timed
// requests: a timed organization call subtracts its device calls at their
// sampled mean instead, so the clock reads of up to hundreds of nested
// device calls (a page migration) cannot pile into its self time.
type cellTrace struct {
	clockNS float64 // calibrated cost of one clock read
	orgName string

	active bool
	req    span // one memory request: translation, organization and glue
	vm     span
	org    span // Organization.Access, inclusive of its device calls
	dev    span // dram.Device.Access, timed outside timed requests
	next   span // workload.Source.Next, sampled on its own counter
	// devInTimed counts device calls made inside timed requests.
	devInTimed uint64

	buildNS int64
	runNS   int64 // cores' start plus Engine.Run
	totalNS int64 // build, run and result assembly
	events  uint64

	// Filled by finish from the machine's own counters.
	devKind     string // "memctrl" or "dram"
	devStats    dram.Stats
	maxQueue    int
	res         system.Result
	overheadNS  float64 // estimated cost of the clock reads
	layerSelfNS map[string]float64
}

// beginRequest counts one memory request and reports whether to time it.
func (t *cellTrace) beginRequest() bool {
	t.req.calls++
	if t.req.calls%sampleEvery != 0 {
		return false
	}
	t.active = true
	return true
}

func (t *cellTrace) endRequest(d int64) {
	t.active = false
	t.req.add(d)
}

// corrected subtracts the clock cost a span's own boundary reads add (one
// read's worth) and the two reads of every timed span nested inside it.
func (t *cellTrace) corrected(s span, nested uint64) float64 {
	return float64(s.ns) - t.clockNS*float64(s.sampled) - 2*t.clockNS*float64(nested)
}

// finish converts the sampled spans into estimated whole-run self times per
// layer. Self time is a span's corrected duration minus its children's;
// totals scale each span's sampled calls up to all its calls.
func (t *cellTrace) finish(m *machine, res system.Result, totalNS int64) {
	t.res = res
	t.totalNS = totalNS
	devMean := ratio(t.corrected(t.dev, 0), float64(t.dev.sampled))
	vmNS := t.corrected(t.vm, 0)
	orgNS := t.corrected(t.org, 0) - devMean*float64(t.devInTimed)
	reqNS := t.corrected(t.req, t.vm.sampled+t.org.sampled)
	scale := ratio(float64(t.req.calls), float64(t.req.sampled))

	self := map[string]float64{
		"dev":      devMean * float64(t.dev.calls),
		"vm":       vmNS * scale,
		"org":      orgNS * scale,
		"req-glue": (reqNS - vmNS - t.corrected(t.org, 0)) * scale,
		"workload": ratio(t.corrected(t.next, 0), float64(t.next.sampled)) * float64(t.next.calls),
	}
	reads := 2 * float64(t.req.sampled+t.vm.sampled+t.org.sampled+t.dev.sampled+t.next.sampled)
	t.overheadNS = reads * t.clockNS
	self["sim"] = float64(t.runNS) - t.overheadNS - self["dev"] - self["vm"] - self["org"] - self["req-glue"] - self["workload"]
	self["build"] = float64(t.buildNS)
	self["assemble"] = float64(totalNS - t.buildNS - t.runNS)
	t.layerSelfNS = self

	t.devKind = "dram"
	for _, d := range m.devices {
		st := d.Stats()
		t.devStats.Add(st)
		if c, ok := d.(*memctrl.Controller); ok {
			t.devKind = "memctrl"
			t.maxQueue = max(t.maxQueue, c.MaxQueueDepth())
		}
	}
}

// correctedTotalNS is the traced cell's wall time with the estimated clock
// cost removed: the sum of every layer's corrected self time.
func (t *cellTrace) correctedTotalNS() float64 {
	var s float64
	for _, v := range t.layerSelfNS {
		s += v
	}
	return s
}

// timedSource decorates a core's request stream.
type timedSource struct {
	src workload.Source
	tr  *cellTrace
}

func (s *timedSource) Next() workload.Request {
	t := s.tr
	t.next.calls++
	if t.next.calls%sampleEvery != 0 {
		return s.src.Next()
	}
	start := clock()
	r := s.src.Next()
	t.next.add(clock() - start)
	return r
}

// timedOrg decorates the organization under test.
type timedOrg struct {
	memsys.Organization
	tr *cellTrace
}

func (o *timedOrg) Access(at uint64, req memsys.Request) uint64 {
	t := o.tr
	t.org.calls++
	if !t.active {
		return o.Organization.Access(at, req)
	}
	start := clock()
	done := o.Organization.Access(at, req)
	t.org.add(clock() - start)
	return done
}

// timedDevice decorates one DRAM device. It forwards the optional
// dram.ExtraMetrics capability so the Result's metrics snapshot is the one
// the undecorated device would publish.
type timedDevice struct {
	dram.Device
	tr *cellTrace
}

func (d *timedDevice) Access(at, line uint64, bytes int, isWrite bool) uint64 {
	t := d.tr
	t.dev.calls++
	if t.active {
		t.devInTimed++
		return d.Device.Access(at, line, bytes, isWrite)
	}
	if t.dev.calls%sampleEvery != 0 {
		return d.Device.Access(at, line, bytes, isWrite)
	}
	start := clock()
	done := d.Device.Access(at, line, bytes, isWrite)
	t.dev.add(clock() - start)
	return done
}

func (d *timedDevice) RegisterExtraMetrics(s *metrics.Scope) {
	if x, ok := d.Device.(dram.ExtraMetrics); ok {
		x.RegisterExtraMetrics(s)
	}
}

// orgTotals is one organization's share of a traced run.
type orgTotals struct {
	calls  uint64
	selfNS float64
}

// layerTotals merges the traces of every cell a traced pass ran.
type layerTotals struct {
	nextCalls, events, vmCalls uint64
	nextNS, simNS, vmNS        float64

	orgs map[string]*orgTotals

	devCalls  map[string]uint64 // by device kind
	devNS     map[string]float64
	devStats  dram.Stats // analytic modules only
	maxQueue  int
	vmStats   struct{ major, minor uint64 }
	cameo     cameo.Stats
	cameoSeen bool
	alloy     alloy.Stats
	migSwaps  uint64

	correctedNS float64 // every cell's corrected self times, summed
}

func newLayerTotals() *layerTotals {
	return &layerTotals{orgs: map[string]*orgTotals{}, devCalls: map[string]uint64{}, devNS: map[string]float64{}}
}

func (l *layerTotals) add(t *cellTrace) {
	l.nextCalls += t.next.calls
	l.nextNS += t.layerSelfNS["workload"]
	l.events += t.events
	l.simNS += t.layerSelfNS["sim"] + t.layerSelfNS["req-glue"]
	l.vmCalls += t.vm.calls
	l.vmNS += t.layerSelfNS["vm"]
	o := l.orgs[t.orgName]
	if o == nil {
		o = &orgTotals{}
		l.orgs[t.orgName] = o
	}
	o.calls += t.org.calls
	o.selfNS += t.layerSelfNS["org"]
	l.devCalls[t.devKind] += t.dev.calls
	l.devNS[t.devKind] += t.layerSelfNS["dev"]
	if t.devKind == "dram" {
		l.devStats.Add(t.devStats)
	}
	l.maxQueue = max(l.maxQueue, t.maxQueue)
	l.vmStats.major += t.res.VM.MajorFaults
	l.vmStats.minor += t.res.VM.MinorFaults
	if t.res.Cameo != nil {
		l.cameo.Add(*t.res.Cameo)
		l.cameoSeen = true
	}
	if a := t.res.Alloy; a != nil {
		l.alloy.Hits += a.Hits
		l.alloy.Misses += a.Misses
	}
	if t.res.Migrations != nil {
		l.migSwaps += t.res.Migrations.Swaps
	}
	l.correctedNS += t.correctedTotalNS()
}

// metrics renders the simulator layers' per-layer metrics. Counts are per
// pass; passes is how many passes the totals cover.
func (l *layerTotals) metrics(passes int, out map[string]float64) {
	p := float64(max(passes, 1))
	out["workload.next_calls"] = float64(l.nextCalls) / p
	out["workload.self_ns_per_call"] = ratio(l.nextNS, float64(l.nextCalls))
	out["sim.events"] = float64(l.events) / p
	out["sim.self_ns_per_event"] = ratio(l.simNS, float64(l.events))
	out["vm.translate_calls"] = float64(l.vmCalls) / p
	out["vm.self_ns_per_call"] = ratio(l.vmNS, float64(l.vmCalls))
	out["vm.major_faults"] = float64(l.vmStats.major) / p
	out["vm.minor_faults"] = float64(l.vmStats.minor) / p
	if c := l.orgs["cameo"]; c != nil {
		out["cameo.access_calls"] = float64(c.calls) / p
		out["cameo.self_ns_per_access"] = ratio(c.selfNS, float64(c.calls))
	}
	if l.cameoSeen {
		out["cameo.swaps"] = float64(l.cameo.Swaps) / p
		out["cameo.stacked_service_rate"] = l.cameo.StackedServiceRate()
		out["cameo.llp_accuracy"] = l.cameo.Cases.Accuracy()
	}
	for _, name := range fig13Orgs {
		if o := l.orgs[name]; o != nil {
			out["org."+name+".self_ns_per_access"] = ratio(o.selfNS, float64(o.calls))
		}
	}
	out["tlm.migration_swaps"] = float64(l.migSwaps) / p
	out["alloy.hit_rate"] = l.alloy.HitRate()
	out["memctrl.access_calls"] = float64(l.devCalls["memctrl"]) / p
	out["memctrl.self_ns_per_call"] = ratio(l.devNS["memctrl"], float64(l.devCalls["memctrl"]))
	out["memctrl.max_queue_depth"] = float64(l.maxQueue)
	out["dram.access_calls"] = float64(l.devCalls["dram"]) / p
	out["dram.self_ns_per_call"] = ratio(l.devNS["dram"], float64(l.devCalls["dram"]))
	out["dram.row_hit_rate"] = l.devStats.RowHitRate()
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never called).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
