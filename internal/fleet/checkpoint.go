// Cluster checkpoint/restore. A checkpoint is one snapshot container
// (internal/snapshot) holding a "fleet" section — the engine's own
// position: script, round, script cursor, VM records, migration log,
// timeline — and one "host<N>" section per host, failed hosts included,
// each holding that host's complete core.System checkpoint. Restore
// rebuilds every host through core.RestoreSystem and re-enters the
// round loop; everything the remaining rounds produce (results,
// tables, forwarded events) is byte-identical to the uninterrupted run.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"heteroos/internal/core"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
)

// checkpointMeta is the fleet section of a cluster checkpoint.
type checkpointMeta struct {
	// Script is embedded so a checkpoint is self-contained.
	Script *Script `json:"script"`
	// Round is the round the restored loop re-enters at; Consumed counts
	// the script actions already applied.
	Round    int        `json:"round"`
	Consumed int        `json:"consumed"`
	VMs      []vmRecord `json:"vms"`
	// Failed and HostVMs describe each host: whether it failed, and its
	// live VMs in the order core.RestoreSystem must boot them.
	Failed         []bool             `json:"failed"`
	HostVMs        [][]vmm.VMID       `json:"host_vms"`
	Windows        map[int][]vmm.VMID `json:"windows,omitempty"`
	Migrations     []MigrationRecord  `json:"migrations,omitempty"`
	Timeline       []RoundSample      `json:"timeline,omitempty"`
	PrevMigrations int                `json:"prev_migrations"`
	PrevTotals     [3]uint64          `json:"prev_totals"`
}

func hostSection(id int) string { return fmt.Sprintf("host%d", id) }

// WriteCheckpoint writes the cluster's full state to path. The write is
// atomic (temp file + rename), so a crash mid-write never leaves a
// truncated checkpoint behind. Call only between script actions.
func (c *Cluster) WriteCheckpoint(path string) error {
	meta := checkpointMeta{
		Script: c.sc, Round: c.round, Consumed: c.consumed,
		Windows: c.windows, Migrations: c.migrations, Timeline: c.timeline,
		PrevMigrations: c.prevMigrations,
		PrevTotals:     [3]uint64{c.prevMoves, c.prevBalloonIn, c.prevRefused},
	}
	for _, id := range c.order {
		st := c.vms[id]
		st.Done = st.wrap.done
		meta.VMs = append(meta.VMs, st.vmRecord)
	}
	for _, h := range c.hosts {
		ids := make([]vmm.VMID, len(h.sys.VMs))
		for i, inst := range h.sys.VMs {
			ids[i] = inst.ID
		}
		meta.Failed = append(meta.Failed, h.failed)
		meta.HostVMs = append(meta.HostVMs, ids)
	}
	blob, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = c.writeSnapshot(f, blob)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

func (c *Cluster) writeSnapshot(f *os.File, meta []byte) error {
	sw, err := snapshot.NewWriter(f)
	if err != nil {
		return err
	}
	if err := sw.Section("fleet", func(e *snapshot.Encoder) { e.Bytes(meta) }); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, h := range c.hosts {
		buf.Reset()
		if err := h.sys.Checkpoint(&buf); err != nil {
			return fmt.Errorf("host %d: %w", h.id, err)
		}
		if err := sw.Section(hostSection(h.id), func(e *snapshot.Encoder) { e.Bytes(buf.Bytes()) }); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Restore rebuilds a checkpointed cluster, positioned exactly where the
// checkpoint was taken. opts supplies the run-time attachments
// (workers, observability, further checkpoints); the script, seed and
// backend come from the checkpoint.
func Restore(rd *snapshot.Reader, opts Options) (*Cluster, error) {
	d, err := rd.Section("fleet")
	if err != nil {
		return nil, fmt.Errorf("fleet: restore: %w", err)
	}
	var meta checkpointMeta
	if err := d.JSON(&meta); err != nil {
		return nil, fmt.Errorf("fleet: restore: decoding fleet section: %w", err)
	}
	if meta.Script == nil {
		return nil, fmt.Errorf("fleet: restore: checkpoint carries no script")
	}
	c, err := newCluster(meta.Script, opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: restore: %w", err)
	}
	sc := c.sc
	if len(meta.Failed) != sc.Hosts || len(meta.HostVMs) != sc.Hosts ||
		meta.Consumed < 0 || meta.Consumed > len(c.actions) {
		return nil, fmt.Errorf("fleet: restore: fleet section does not match its script")
	}
	c.round, c.consumed, c.actions = meta.Round, meta.Consumed, c.actions[meta.Consumed:]
	c.migrations, c.timeline, c.prevMigrations = meta.Migrations, meta.Timeline, meta.PrevMigrations
	c.prevMoves, c.prevBalloonIn, c.prevRefused = meta.PrevTotals[0], meta.PrevTotals[1], meta.PrevTotals[2]
	for _, rec := range meta.VMs {
		st := &vmState{vmRecord: rec}
		if _, dup := c.vms[st.ID]; dup || st.Host < 0 || st.Host >= sc.Hosts {
			return nil, fmt.Errorf("fleet: restore: bad record for VM %d", st.ID)
		}
		c.vms[st.ID] = st
		c.order = append(c.order, st.ID)
	}
	for ev, ids := range meta.Windows {
		for _, id := range ids {
			if _, ok := c.vms[id]; !ok {
				return nil, fmt.Errorf("fleet: restore: window of event %d targets unknown VM %d", ev, id)
			}
		}
		c.windows[ev] = ids
	}
	for id := 0; id < sc.Hosts; id++ {
		cfg := c.hostConfig(id)
		for _, vid := range meta.HostVMs[id] {
			st, ok := c.vms[vid]
			if !ok {
				return nil, fmt.Errorf("fleet: restore: host %d runs unknown VM %d", id, vid)
			}
			vc, err := c.vmConfig(st)
			if err != nil {
				return nil, err
			}
			cfg.VMs = append(cfg.VMs, vc)
		}
		sys, err := restoreHost(rd, id, cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: restore: host %d: %w", id, err)
		}
		c.addHost(sys, meta.Failed[id])
	}
	for _, id := range c.order {
		st := c.vms[id]
		if st.wrap == nil {
			// Shut down before the checkpoint: only the completion flag
			// is still read.
			st.wrap = &surgeWorkload{done: st.Done}
		}
		if !st.Down {
			c.hosts[st.Host].admit(st)
		}
	}
	return c, nil
}

// restoreHost rebuilds one host from its nested core checkpoint.
func restoreHost(rd *snapshot.Reader, id int, cfg core.Config) (*core.System, error) {
	d, err := rd.Section(hostSection(id))
	if err != nil {
		return nil, err
	}
	b := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	hr, err := snapshot.Open(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return core.RestoreSystem(hr, cfg)
}

// RestoreFile opens a checkpoint file and restores it.
func RestoreFile(path string, opts Options) (*Cluster, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: restore: %w", err)
	}
	defer f.Close()
	rd, err := snapshot.Open(f)
	if err != nil {
		return nil, fmt.Errorf("fleet: restore %s: %w", path, err)
	}
	return Restore(rd, opts)
}
