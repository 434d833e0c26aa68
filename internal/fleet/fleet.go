package fleet

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/runner"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// Options configures a fleet run.
type Options struct {
	// Workers bounds hosts stepping concurrently; <=0 means GOMAXPROCS.
	// The result is byte-identical regardless of this value.
	Workers int
	// Obs, when non-nil, attaches observability: each host gets a
	// NestedJobScope child handle, so every host's metrics land under
	// "host/<id>/..." of this handle's registry and one Snapshot (or
	// Rollup) aggregates the whole fleet. When this handle has a sink
	// (a non-nil Tracer), every host's events are forwarded to it in a
	// deterministic order (host by host, at each serial step). Read the
	// metrics only after the run returns.
	Obs *obs.Obs
	// ProfileEpochs turns on every host's epoch phase profiler (needs
	// Obs).
	ProfileEpochs bool
	// CheckpointEvery writes a cluster checkpoint to CheckpointPath
	// after every N-th round until the cluster goes idle (0 disables
	// periodic checkpoints); each write replaces the previous one.
	CheckpointEvery int
	CheckpointPath  string
}

// vmRecord is the fleet's book-keeping for one VM across its whole
// life, including migrations between hosts. It is plain data, so a
// cluster checkpoint carries it verbatim.
type vmRecord struct {
	ID        vmm.VMID `json:"id"`
	App       string   `json:"app"`
	Mode      string   `json:"mode"`
	FastPages uint64   `json:"fast_pages"`
	SlowPages uint64   `json:"slow_pages"`
	// Host indexes the System currently holding the VM (and, after
	// shutdown, its final result).
	Host       int  `json:"host"`
	BootRound  int  `json:"boot_round"`
	Down       bool `json:"down,omitempty"`
	DownRound  int  `json:"down_round,omitempty"`
	Lost       bool `json:"lost,omitempty"`
	Migrations int  `json:"migrations,omitempty"`
	// Done is the workload's completion flag as of the last checkpoint;
	// a shut-down VM has no live workload to restore it from.
	Done bool `json:"done,omitempty"`
}

// vmState is one VM's record plus its live workload wrapper.
type vmState struct {
	vmRecord
	wrap *surgeWorkload
}

func (st *vmState) view() VMView {
	return VMView{ID: st.ID, Host: st.Host, FastPages: st.FastPages, SlowPages: st.SlowPages}
}

// host is one datacenter machine: a full core.System plus the fleet's
// span-commitment books the placement policies read.
type host struct {
	id     int
	sys    *core.System
	obs    *obs.Obs
	failed bool
	// fastCommitted / slowCommitted sum resident VM spans (see
	// HostView).
	fastCommitted, slowCommitted uint64
	resident                     map[vmm.VMID]*vmState
	// events holds the host's emitted events until the fleet forwards
	// them to Options.Obs (nil when nothing is forwarded).
	events *eventBuffer
}

func (h *host) view() HostView {
	return HostView{
		ID: h.id, Failed: h.failed,
		FastFrames: h.sys.Cfg.FastFrames, SlowFrames: h.sys.Cfg.SlowFrames,
		FastCommitted: h.fastCommitted, SlowCommitted: h.slowCommitted,
		VMs: len(h.resident),
	}
}

// eventBuffer is a host tracer's sink: it keeps flushed batches until
// the fleet drains them into the parent handle's tracer. Hosts step
// concurrently, so they cannot share the parent's tracer directly.
type eventBuffer struct{ events []obs.Event }

func (b *eventBuffer) WriteBatch(batch []obs.Event) error {
	b.events = append(b.events, batch...)
	return nil
}

func (b *eventBuffer) Close() error { return nil }

// action is one expanded script step: windowed events unfold into a
// start action and (for Duration > 0) a clear action.
type action struct {
	at    int
	ev    int // index into Script.Events
	clear bool
}

// Cluster is a running fleet: N hosts advanced in lock-step rounds.
// Build one with NewCluster (or Restore), drive it with StepRound (or
// Finish), then collect the outcome with Result.
type Cluster struct {
	sc    *Script
	opts  Options
	place Placement
	hosts []*host
	vms   map[vmm.VMID]*vmState
	order []vmm.VMID
	// actions are the not-yet-applied script actions; consumed counts
	// the applied ones, which is where a restored run re-enters.
	actions  []action
	consumed int
	// windows maps a windowed event's index to the VMs its start action
	// resolved, so the clear action unwinds exactly that set.
	windows map[int][]vmm.VMID

	round          int
	migrations     []MigrationRecord
	timeline       []RoundSample
	prevMigrations int
	// prevMoves, prevBalloonIn and prevRefused are the fleet-wide totals
	// at the previous sample, for the timeline's per-round deltas.
	prevMoves, prevBalloonIn, prevRefused uint64
	viewBuf                               []HostView

	// probe, when set, runs after every applied script action (stage
	// "event") and after every round (stage "round"); an error aborts
	// the run. The fuzzing harness checks invariants through it.
	probe func(stage string) error
}

// hostSeed derives host id's system seed from the fleet seed: the
// fleet seed is mixed once, golden-ratio-offset per host, and mixed
// again, so sibling hosts' RNG streams are as unrelated as two
// independent seeds (see runner.Mix64).
func hostSeed(fleetSeed uint64, id int) uint64 {
	s := runner.Mix64(runner.Mix64(fleetSeed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = 1
	}
	return s
}

// newCluster validates the script and options and builds an empty
// cluster with no hosts.
func newCluster(sc *Script, opts Options) (*Cluster, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.CheckpointEvery < 0 || (opts.CheckpointEvery > 0 && opts.CheckpointPath == "") {
		return nil, fmt.Errorf("fleet %q: periodic checkpoints need a positive interval and a path", sc.Name)
	}
	place, err := PlacementByName(sc.placement())
	if err != nil {
		return nil, err
	}
	return &Cluster{
		sc: sc, opts: opts, place: place,
		vms:     make(map[vmm.VMID]*vmState, sc.TotalVMs()),
		windows: make(map[int][]vmm.VMID),
		actions: expandActions(sc.Events),
	}, nil
}

// hostConfig is host id's core configuration, without VMs.
func (c *Cluster) hostConfig(id int) core.Config {
	sc := c.sc
	cfg := core.Config{
		FastFrames: sc.Host.FastFrames,
		SlowFrames: sc.Host.SlowFrames,
		Share:      core.ShareKind(sc.share()),
		// Hosts are driven by StepEpoch, not core.Run; the budget
		// only caps a runaway script.
		MaxEpochs:     sc.Rounds*sc.RoundEpochs + 1,
		AllowNoVMs:    true,
		CostScale:     float64(sc.scale()),
		Obs:           c.opts.Obs.NestedJobScope("host", strconv.Itoa(id)),
		Seed:          hostSeed(sc.Seed, id),
		ProfileEpochs: c.opts.ProfileEpochs,
	}
	if t := sc.Host.SlowThrottle; t != nil {
		cfg.SlowSpec = t.Spec()
	}
	return cfg
}

// addHost registers a built host, wiring its event forwarding.
func (c *Cluster) addHost(sys *core.System, failed bool) {
	h := &host{id: len(c.hosts), sys: sys, obs: sys.Cfg.Obs, failed: failed, resident: make(map[vmm.VMID]*vmState)}
	if c.opts.Obs != nil && c.opts.Obs.Tracer != nil {
		h.events = &eventBuffer{}
		h.obs.AddSink(h.events)
	}
	c.hosts = append(c.hosts, h)
}

// NewCluster validates the script, boots every host (empty), places
// and boots the round-0 VM groups, and returns the cluster positioned
// before round 0.
func NewCluster(sc *Script, opts Options) (*Cluster, error) {
	c, err := newCluster(sc, opts)
	if err != nil {
		return nil, err
	}
	for id := 0; id < sc.Hosts; id++ {
		sys, err := core.NewSystem(c.hostConfig(id))
		if err != nil {
			return nil, fmt.Errorf("fleet %q: host %d: %w", sc.Name, id, err)
		}
		c.addHost(sys, false)
	}
	for i := range sc.VMs {
		if err := c.bootGroup(context.TODO(), &sc.VMs[i]); err != nil {
			return nil, err
		}
	}
	c.forwardEvents()
	return c, nil
}

// expandActions unfolds the script into round-ordered actions; the
// sort is stable so actions sharing a round keep script order.
func expandActions(events []Event) []action {
	var out []action
	for i := range events {
		e := &events[i]
		out = append(out, action{at: e.At, ev: i})
		if e.windowed() && e.Duration > 0 {
			out = append(out, action{at: e.At + e.Duration, ev: i, clear: true})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// vmConfig materialises a VM's core config: a fresh workload seeded
// from the fleet seed and the VM id — stable across migrations and
// restores, so a re-built workload restores the travelling cursor into
// an identical generator — wrapped for surge control.
func (c *Cluster) vmConfig(st *vmState) (core.VMConfig, error) {
	mode, err := policy.ByName(st.Mode)
	if err != nil {
		return core.VMConfig{}, err
	}
	w, err := workload.ByName(st.App, workload.Config{
		Seed:  runner.DeriveSeed(c.sc.Seed, int(st.ID)),
		Scale: c.sc.scale(),
	})
	if err != nil {
		return core.VMConfig{}, err
	}
	st.wrap = &surgeWorkload{inner: w, factor: 1}
	return core.VMConfig{
		ID: st.ID, Mode: mode, Workload: st.wrap,
		FastPages: st.FastPages, SlowPages: st.SlowPages,
	}, nil
}

// hostViews snapshots every host's placement view into a reused
// buffer.
func (c *Cluster) hostViews() []HostView {
	if c.viewBuf == nil {
		c.viewBuf = make([]HostView, len(c.hosts))
	}
	for i, h := range c.hosts {
		c.viewBuf[i] = h.view()
	}
	return c.viewBuf
}

// bootGroup places every VM of one group, then boots them. Placement
// reads only the fleet-side books (HostView), never host state, so the
// serial loop places, admits and records the whole group first; then
// each host boots its share, in VM-id order, as one pool job. Of
// several failed boots the lowest VM id's error is returned — the one
// a VM-by-VM loop would have hit first. A placement or config error
// ends the group: the VMs placed before it still boot, and a boot
// error among them takes precedence.
func (c *Cluster) bootGroup(ctx context.Context, g *VMGroup) error {
	boots := make([][]core.VMConfig, len(c.hosts))
	var placeErr error
	for i := 0; i < g.count(); i++ {
		st := &vmState{vmRecord: vmRecord{
			ID:  vmm.VMID(len(c.order) + 1),
			App: g.App, Mode: g.Mode,
			FastPages: g.FastPages, SlowPages: g.SlowPages,
			BootRound: c.round,
		}}
		target := c.place.PlaceBoot(st.view(), c.hostViews())
		if target < 0 {
			placeErr = fmt.Errorf("fleet %q round %d: no host fits VM %d (%s, %d fast + %d slow)",
				c.sc.Name, c.round, st.ID, st.App, st.FastPages, st.SlowPages)
			break
		}
		vc, err := c.vmConfig(st)
		if err != nil {
			placeErr = err
			break
		}
		boots[target] = append(boots[target], vc)
		st.Host = target
		c.hosts[target].admit(st)
		c.vms[st.ID] = st
		c.order = append(c.order, st.ID)
	}
	// booting[h] is the VM host h is booting (or failed to boot).
	booting := make([]vmm.VMID, len(c.hosts))
	errs := c.eachHost(ctx, func(h *host) bool { return len(boots[h.id]) > 0 }, func(h *host) error {
		for _, vc := range boots[h.id] {
			booting[h.id] = vc.ID
			if _, err := h.sys.BootVM(vc); err != nil {
				return err
			}
		}
		return nil
	})
	first := -1
	for id, err := range errs {
		if err != nil && (first < 0 || booting[id] < booting[first]) {
			first = id
		}
	}
	if first >= 0 {
		return fmt.Errorf("fleet %q round %d: boot VM %d on host %d: %w", c.sc.Name, c.round, booting[first], first, errs[first])
	}
	return placeErr
}

func (h *host) admit(st *vmState) {
	h.fastCommitted += st.FastPages
	h.slowCommitted += st.SlowPages
	h.resident[st.ID] = st
}

func (h *host) release(st *vmState) {
	h.fastCommitted -= st.FastPages
	h.slowCommitted -= st.SlowPages
	delete(h.resident, st.ID)
}

// resident reports whether the VM is still on a live host: not shut
// down, not stranded, its host not failed.
func (c *Cluster) resident(st *vmState) bool {
	return !st.Down && !st.Lost && !c.hosts[st.Host].failed
}

// running reports whether a resident VM is still doing work.
func (c *Cluster) running(st *vmState) bool {
	return c.resident(st) && !st.wrap.done
}

// targets resolves a VM-targeted event's VM set: the explicit id,
// which must be resident, or the Count lowest-id VMs satisfying
// eligible. Count events tolerate a smaller eligible set (mass churn
// takes what is there).
func (c *Cluster) targets(e *Event, eligible func(*vmState) bool) ([]vmm.VMID, error) {
	if e.VM > 0 {
		st, ok := c.vms[vmm.VMID(e.VM)]
		if !ok {
			return nil, fmt.Errorf("%s targets VM %d before it booted", e.Kind, e.VM)
		}
		if !c.resident(st) {
			return nil, fmt.Errorf("%s targets VM %d, which is no longer resident (down=%v lost=%v)", e.Kind, e.VM, st.Down, st.Lost)
		}
		return []vmm.VMID{st.ID}, nil
	}
	var ids []vmm.VMID
	for _, id := range c.order {
		if len(ids) == e.Count {
			break
		}
		if eligible(c.vms[id]) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// apply executes one script action at the current round.
func (c *Cluster) apply(ctx context.Context, a action) error {
	e := &c.sc.Events[a.ev]
	switch e.Kind {
	case KindBoot:
		return c.bootGroup(ctx, e.Boot)
	case KindShutdown:
		ids, err := c.targets(e, c.resident)
		if err != nil {
			return err
		}
		for _, id := range ids {
			st := c.vms[id]
			h := c.hosts[st.Host]
			if _, err := h.sys.ShutdownVM(id); err != nil {
				return err
			}
			if err := h.sys.CheckInvariants(); err != nil {
				return fmt.Errorf("host %d after shutdown of VM %d: %w", h.id, id, err)
			}
			h.release(st)
			st.Down, st.DownRound = true, c.round
		}
	case KindSurge, KindBalloonRefusal, KindMigrationStall:
		return c.applyWindow(a, e)
	case KindThrottleShift:
		c.hosts[e.Host].sys.SetTierSpec(memsim.SlowMem, e.Throttle.Spec())
	case KindHostFail:
		return c.failHost(e.Host)
	case KindCheckpoint:
		return c.WriteCheckpoint(e.Path)
	}
	return nil
}

// applyWindow opens or closes a surge or fault window. The window's
// state travels with a VM through live migration (it is part of the
// migrated image), and the clear reaches the VM on whichever host it
// is then; VMs shut down or stranded meanwhile are skipped.
func (c *Cluster) applyWindow(a action, e *Event) error {
	ids := c.windows[a.ev]
	if a.clear {
		delete(c.windows, a.ev)
	} else {
		var err error
		if ids, err = c.targets(e, c.running); err != nil {
			return err
		}
		if e.Duration > 0 {
			c.windows[a.ev] = ids
		}
	}
	on := !a.clear
	factor := e.Factor
	if factor == 0 {
		factor = 2
	}
	for _, id := range ids {
		st := c.vms[id]
		if !c.resident(st) {
			continue
		}
		sys := c.hosts[st.Host].sys
		var err error
		switch e.Kind {
		case KindBalloonRefusal:
			err = sys.SetBalloonRefusal(id, on)
		case KindMigrationStall:
			err = sys.SetMigrationStall(id, on)
		default:
			st.wrap.active, st.wrap.factor = on, factor
			sys.EmitFault(id, obs.FaultSurge, on)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// failHost marks the host failed — it never steps again — and
// mass-evacuates its running VMs by live migration to wherever the
// placement policy finds room. VMs that fit nowhere are stranded on
// the dead host and recorded as lost (their partial results remain
// readable); finished VMs stay put, their results final.
func (c *Cluster) failHost(id int) error {
	h := c.hosts[id]
	h.failed = true
	ids := make([]vmm.VMID, 0, len(h.resident))
	for vid := range h.resident {
		ids = append(ids, vid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, vid := range ids {
		st := h.resident[vid]
		if st.wrap.done {
			continue
		}
		target := c.place.PlaceBoot(st.view(), c.hostViews())
		if target < 0 {
			st.Lost = true
			continue
		}
		if err := c.migrate(st, target, true); err != nil {
			return err
		}
	}
	return nil
}

// migrate live-migrates one VM: emigrate from its current host,
// immigrate onto the target, with the heat-profile carry-over checked
// against pre/post HeatIndex summaries.
func (c *Cluster) migrate(st *vmState, to int, evacuation bool) error {
	src, dst := c.hosts[st.Host], c.hosts[to]
	var pre vmm.HeatSummary
	preOK := false
	for _, inst := range src.sys.VMs {
		if inst.ID == st.ID {
			pre, preOK = inst.HeatIndexSummary()
			break
		}
	}
	img, err := src.sys.EmigrateVM(st.ID)
	if err != nil {
		return fmt.Errorf("host %d: %w", src.id, err)
	}
	src.release(st)
	vc, err := c.vmConfig(st)
	if err != nil {
		return err
	}
	inst, err := dst.sys.ImmigrateVM(vc, img)
	if err != nil {
		return fmt.Errorf("host %d: immigrate VM %d: %w", dst.id, st.ID, err)
	}
	dst.admit(st)
	st.Host = to
	st.Migrations++
	post, postOK := inst.HeatIndexSummary()
	c.migrations = append(c.migrations, MigrationRecord{
		Round: c.round, VM: st.ID, From: src.id, To: dst.id,
		Frames: img.Frames(), Evacuation: evacuation,
		HeatPreserved: preOK && postOK && pre == post,
	})
	return nil
}

// rebalance asks the placement policy for moves and applies them.
func (c *Cluster) rebalance() error {
	var views []VMView
	for _, id := range c.order {
		if st := c.vms[id]; c.running(st) {
			views = append(views, st.view())
		}
	}
	for _, m := range c.place.Rebalance(c.hostViews(), views) {
		st, ok := c.vms[m.VM]
		if !ok || !c.running(st) {
			return fmt.Errorf("fleet %q round %d: %s rebalance moves ineligible VM %d", c.sc.Name, c.round, c.place.Name(), m.VM)
		}
		if m.To < 0 || m.To >= len(c.hosts) || m.To == st.Host {
			return fmt.Errorf("fleet %q round %d: %s rebalance moves VM %d to invalid host %d", c.sc.Name, c.round, c.place.Name(), m.VM, m.To)
		}
		if v := c.hosts[m.To].view(); !v.Fits(st.FastPages, st.SlowPages) {
			return fmt.Errorf("fleet %q round %d: %s rebalance overcommits host %d with VM %d", c.sc.Name, c.round, c.place.Name(), m.To, m.VM)
		}
		if err := c.migrate(st, m.To, false); err != nil {
			return fmt.Errorf("fleet %q round %d: %w", c.sc.Name, c.round, err)
		}
	}
	return nil
}

// runProbe invokes the probe, if any, wrapping its error with the
// round context.
func (c *Cluster) runProbe(stage string) error {
	if c.probe == nil {
		return nil
	}
	if err := c.probe(stage); err != nil {
		return fmt.Errorf("fleet %q round %d after %s: %w", c.sc.Name, c.round, stage, err)
	}
	return nil
}

// StepRound advances the fleet one lock-step round: due script events
// apply, the placement policy rebalances (migrations run serially),
// every live host steps RoundEpochs epochs concurrently through the
// runner pool, and a timeline sample is taken at the barrier. After
// every CheckpointEvery-th round a checkpoint is written, unless the
// cluster has gone idle. Calling it past Script.Rounds is an error.
func (c *Cluster) StepRound(ctx context.Context) error {
	if c.round >= c.sc.Rounds {
		return fmt.Errorf("fleet %q: stepping past round %d", c.sc.Name, c.sc.Rounds)
	}
	for len(c.actions) > 0 && c.actions[0].at <= c.round {
		a := c.actions[0]
		c.actions = c.actions[1:]
		c.consumed++
		err := c.apply(ctx, a)
		c.forwardEvents()
		if err != nil {
			return fmt.Errorf("fleet %q round %d: %w", c.sc.Name, c.round, err)
		}
		if err := c.runProbe("event"); err != nil {
			return err
		}
	}
	err := c.rebalance()
	c.forwardEvents()
	if err != nil {
		return err
	}
	err = c.stepHosts(ctx)
	c.forwardEvents()
	if err != nil {
		return err
	}
	c.sample()
	if err := c.runProbe("round"); err != nil {
		return err
	}
	c.round++
	// Live exporters (heterosim -listen) subscribe through the epoch
	// hook; hosts tick only their own child handles.
	c.opts.Obs.EpochTick(c.round)
	if n := c.opts.CheckpointEvery; n > 0 && c.round%n == 0 && c.round < c.sc.Rounds && !c.idle() {
		if err := c.WriteCheckpoint(c.opts.CheckpointPath); err != nil {
			return fmt.Errorf("fleet %q round %d: %w", c.sc.Name, c.round, err)
		}
	}
	return nil
}

// idle reports whether nothing is left to happen: no script action
// pending and no VM running. Periodic checkpoints stop there — the
// remaining rounds would replay nothing.
func (c *Cluster) idle() bool {
	if len(c.actions) > 0 {
		return false
	}
	for _, st := range c.vms {
		if c.running(st) {
			return false
		}
	}
	return true
}

// forwardEvents drains every host's buffered events, in host order,
// into the parent handle's tracer. Called after each serial step, so
// the forwarded stream is chronological within every host and
// independent of worker count.
func (c *Cluster) forwardEvents() {
	for _, h := range c.hosts {
		if h.events == nil {
			continue
		}
		h.obs.Tracer.Flush()
		for _, ev := range h.events.events {
			c.opts.Obs.Tracer.Emit(ev)
		}
		h.events.events = h.events.events[:0]
	}
}

// eachHost runs fn on every host that use selects, one runner pool job
// per host, and returns fn's errors indexed by host id. Hosts share no
// mutable state and each job touches only its own host, so the pooled
// phases (boot, step, final check) cannot perturb determinism: every
// host does its own work in its own order, and callers read the errors
// in a fixed order.
func (c *Cluster) eachHost(ctx context.Context, use func(*host) bool, fn func(*host) error) []error {
	pool := runner.NewPool(ctx, runner.Options{Workers: c.opts.Workers})
	futures := make([]*runner.Future, len(c.hosts))
	for i, h := range c.hosts {
		if !use(h) {
			continue
		}
		futures[i] = pool.Go("host"+strconv.Itoa(h.id), func(context.Context) error { return fn(h) })
	}
	errs := make([]error, len(c.hosts))
	for i, f := range futures {
		if f != nil {
			errs[i] = f.Wait()
		}
	}
	return errs
}

// live selects the hosts that have not failed.
func live(h *host) bool { return !h.failed }

// stepHosts runs every live host's RoundEpochs epochs through the
// runner pool; the first failing host in host order reports.
func (c *Cluster) stepHosts(ctx context.Context) error {
	errs := c.eachHost(ctx, live, func(h *host) error {
		for e := 0; e < c.sc.RoundEpochs; e++ {
			alive, err := h.sys.StepEpoch()
			if err != nil || !alive {
				return err
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet %q round %d: host %d: %w", c.sc.Name, c.round, i, err)
		}
	}
	return nil
}

// sample appends one timeline point (after the round's barrier).
func (c *Cluster) sample() {
	s := RoundSample{Round: c.round, Migrations: len(c.migrations) - c.prevMigrations}
	c.prevMigrations = len(c.migrations)
	// Page-movement and balloon totals sum every VM instance on every
	// host, departed included; a migrated-out stub carries a zero
	// result, so each VM counts exactly once.
	var moves, ballIn, refused uint64
	for _, h := range c.hosts {
		for _, set := range [][]*core.VMInstance{h.sys.VMs, h.sys.Departed} {
			for _, inst := range set {
				moves += inst.Res.Promotions + inst.Res.Demotions + inst.Res.VMMMigrations
				ballIn += inst.Res.BalloonPagesIn
				refused += inst.Res.BalloonRefusedPages
			}
		}
		if !h.failed {
			s.LiveHosts++
			s.FastFree += h.sys.Machine.FreeFrames(memsim.FastMem)
		}
	}
	s.Moves, s.BalloonIn, s.Refused = moves-c.prevMoves, ballIn-c.prevBalloonIn, refused-c.prevRefused
	c.prevMoves, c.prevBalloonIn, c.prevRefused = moves, ballIn, refused
	drf := c.sc.share() == string(core.ShareDRF)
	for _, id := range c.order {
		st := c.vms[id]
		if st.Lost {
			s.Lost++
			continue
		}
		if st.Down {
			continue
		}
		s.ResidentVMs++
		if c.running(st) {
			s.RunningVMs++
		}
		if drf && c.resident(st) {
			s.Shares = append(s.Shares, VMShare{ID: id, Share: c.hosts[st.Host].sys.DRFDominantShare(id)})
		}
	}
	c.timeline = append(c.timeline, s)
}

// Result finalises the run: every live host's invariants are checked
// through the runner pool (the first failing host in host order
// reports) and the per-VM outcomes, migration log, and timeline are
// assembled.
func (c *Cluster) Result() (*Result, error) {
	res := &Result{
		Name: c.sc.Name, Seed: c.sc.Seed,
		Hosts: len(c.hosts), Rounds: c.round,
		Placement:  c.place.Name(),
		Migrations: c.migrations,
		Timeline:   c.timeline,
	}
	errs := c.eachHost(context.TODO(), live, func(h *host) error { return h.sys.CheckInvariants() })
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet %q: host %d final invariants: %w", c.sc.Name, id, err)
		}
	}
	for _, h := range c.hosts {
		res.HostRuns = append(res.HostRuns, HostRun{
			ID: h.id, Failed: h.failed, Epochs: h.sys.Epochs(),
			VMs: len(h.resident), Sys: h.sys, Obs: h.obs,
		})
	}
	for _, id := range c.order {
		st := c.vms[id]
		run := VMRun{
			ID: st.ID, App: st.App, Mode: st.Mode,
			BootRound: st.BootRound, Host: st.Host,
			ShutdownRound: -1,
			Migrations:    st.Migrations,
			Completed:     st.wrap.done,
			Lost:          st.Lost,
		}
		if st.Down {
			run.ShutdownRound = st.DownRound
		}
		if vr, ok := c.hosts[st.Host].sys.VMResultByID(st.ID); ok {
			run.Res = *vr
		} else {
			return nil, fmt.Errorf("fleet %q: VM %d vanished from host %d", c.sc.Name, st.ID, st.Host)
		}
		res.VMs = append(res.VMs, run)
	}
	return res, nil
}

// Finish steps the remaining rounds and returns the result.
func (c *Cluster) Finish(ctx context.Context) (*Result, error) {
	for c.round < c.sc.Rounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := c.StepRound(ctx); err != nil {
			return nil, err
		}
	}
	return c.Result()
}

// Run executes a fleet script to completion.
//
// Determinism: the result — and, with opts.Obs attached, the metric
// tree and the forwarded event stream — is a pure function of (*sc,
// sc.Seed), byte-identical across worker counts.
func Run(ctx context.Context, sc *Script, opts Options) (*Result, error) {
	c, err := NewCluster(sc, opts)
	if err != nil {
		return nil, err
	}
	return c.Finish(ctx)
}
