package faults

import (
	"errors"
	"fmt"
	"time"

	"stagedweb/internal/dbtier"
	"stagedweb/internal/variant"
)

// Plan names.
const (
	// ReplicaKill kills one read replica backend mid-run, optionally
	// restarting it after a delay.
	ReplicaKill = "replica-kill"
	// ShardDown stops a whole shard stack from accepting forwarded
	// requests, optionally reviving it after a delay.
	ShardDown = "shard-down"
	// SlowBackend injects added latency into one backend's statement
	// path, optionally clearing it after a delay.
	SlowBackend = "slow-backend"
	// ConnDrop resets the balancer's pooled keep-alive backend
	// connections, repeatedly.
	ConnDrop = "conn-drop"
	// Leak acquires primary-pool connections and never releases them,
	// optionally returning them after a delay.
	Leak = "leak"
)

// plans is the table Lookup and Names read.
var plans = map[string]Plan{
	ReplicaKill: buildReplicaKill,
	ShardDown:   buildShardDown,
	SlowBackend: buildSlowBackend,
	ConnDrop:    buildConnDrop,
	Leak:        buildLeak,
}

// Shared setting defaults: faults strike half a paper-minute into the
// measurement window and heal half a paper-minute later, leaving room
// on both sides to observe degradation and recovery.
const (
	defaultAt      = 30 * time.Second
	defaultRestart = 30 * time.Second
)

// needTiers returns the environment's database tiers or a build error
// naming the plan.
func needTiers(env Env, plan string) ([]*dbtier.Tier, error) {
	if len(env.Targets.Tiers) == 0 {
		return nil, fmt.Errorf("faults: %s needs a database tier target", plan)
	}
	return env.Targets.Tiers, nil
}

// replica-kill: at+T, mark replica backend `target` down on every tier
// (each shard loses the same replica slot — the worst case for a
// replicated read rotation); at+T+restart, revive it. restart=0 leaves
// it dead for the rest of the run.
//
// Settings: at (paper offset, default 30s), target (backend index,
// default 1, primary is 0 and cannot be killed), restart (delay after
// the kill, default 30s, 0 = never).
func buildReplicaKill(env Env) (*StepInjector, error) {
	d := variant.NewSettingsDecoder(env.Set, nil)
	at := d.Duration("at", defaultAt)
	target := d.Int("target", 1)
	restart := d.Duration("restart", defaultRestart)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", ReplicaKill, err)
	}
	tiers, err := needTiers(env, ReplicaKill)
	if err != nil {
		return nil, err
	}
	for _, t := range tiers {
		if target < 1 || target >= t.Replicas() {
			return nil, fmt.Errorf("faults: %s: target %d out of range (tier has %d backends; replicas are 1..%d)",
				ReplicaKill, target, t.Replicas(), t.Replicas()-1)
		}
	}
	in := NewInjector(env)
	in.Add(at, 0, fmt.Sprintf("kill replica backend %d", target), func() {
		for _, t := range tiers {
			_ = t.KillBackend(target)
		}
	})
	if restart > 0 {
		in.Add(at+restart, 0, fmt.Sprintf("restart replica backend %d", target), func() {
			for _, t := range tiers {
				_ = t.RestartBackend(target)
			}
		})
	}
	return in, nil
}

// shard-down: at+T, the balancer marks shard `target` down — forwards
// fail fast, keyed pages for its customers error, cross-shard pages
// degrade after the fan-out deadline instead of hanging; at+T+restart,
// the shard rejoins. restart=0 leaves it down.
//
// Settings: at (default 30s), target (shard index, default 1 when the
// cluster has more than one shard, else 0), restart (default 30s,
// 0 = never).
func buildShardDown(env Env) (*StepInjector, error) {
	b := env.Targets.Balancer
	if b == nil {
		return nil, errors.New("faults: shard-down needs a cluster balancer target (set shards=)")
	}
	defTarget := 0
	if b.Shards() > 1 {
		defTarget = 1
	}
	d := variant.NewSettingsDecoder(env.Set, nil)
	at := d.Duration("at", defaultAt)
	target := d.Int("target", defTarget)
	restart := d.Duration("restart", defaultRestart)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", ShardDown, err)
	}
	if target < 0 || target >= b.Shards() {
		return nil, fmt.Errorf("faults: %s: target %d out of range (cluster has %d shards)", ShardDown, target, b.Shards())
	}
	in := NewInjector(env)
	in.Add(at, 0, fmt.Sprintf("shard %d down", target), func() {
		_ = b.SetShardDown(target, true)
	})
	if restart > 0 {
		in.Add(at+restart, 0, fmt.Sprintf("shard %d up", target), func() {
			_ = b.SetShardDown(target, false)
		})
	}
	return in, nil
}

// slow-backend: at+T, every statement on backend `target` gains `slow`
// of added paper-time latency — beyond the tier's SlowThreshold the
// health loop ejects a replica from the rotation; at+T+restart the
// latency clears and the replica resyncs and reintegrates.
//
// Settings: at (default 30s), target (backend index, default 1; 0 slows
// the primary, which is never ejected), slow (added latency, default
// 2s), restart (default 30s, 0 = never).
func buildSlowBackend(env Env) (*StepInjector, error) {
	d := variant.NewSettingsDecoder(env.Set, nil)
	at := d.Duration("at", defaultAt)
	target := d.Int("target", 1)
	slow := d.Duration("slow", 2*time.Second)
	restart := d.Duration("restart", defaultRestart)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", SlowBackend, err)
	}
	tiers, err := needTiers(env, SlowBackend)
	if err != nil {
		return nil, err
	}
	for _, t := range tiers {
		if target < 0 || target >= t.Replicas() {
			return nil, fmt.Errorf("faults: %s: target %d out of range (tier has %d backends)", SlowBackend, target, t.Replicas())
		}
	}
	in := NewInjector(env)
	in.Add(at, 0, fmt.Sprintf("slow backend %d by %v", target, slow), func() {
		for _, t := range tiers {
			_ = t.SetBackendDelay(target, slow)
		}
	})
	if restart > 0 {
		in.Add(at+restart, 0, fmt.Sprintf("unslow backend %d", target), func() {
			for _, t := range tiers {
				_ = t.SetBackendDelay(target, 0)
			}
		})
	}
	return in, nil
}

// conn-drop: starting at+T and every `every` thereafter, reset the
// balancer's pooled keep-alive connections to every shard — in-flight
// forwards see connection errors and retry, idle pools refill on
// demand.
//
// Settings: at (default 30s), every (repeat interval, default 5s).
func buildConnDrop(env Env) (*StepInjector, error) {
	b := env.Targets.Balancer
	if b == nil {
		return nil, errors.New("faults: conn-drop needs a cluster balancer target (set shards=)")
	}
	d := variant.NewSettingsDecoder(env.Set, nil)
	at := d.Duration("at", defaultAt)
	every := d.Duration("every", 5*time.Second)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", ConnDrop, err)
	}
	if every <= 0 {
		return nil, fmt.Errorf("faults: %s: every must be positive, got %v", ConnDrop, every)
	}
	in := NewInjector(env)
	in.Add(at, every, "drop pooled backend connections", func() {
		b.ResetBackendConns()
	})
	return in, nil
}

// leak: at+T, acquire `conns` primary-pool connections on every tier
// and hold them (conns=0 takes every currently idle one) — remaining
// capacity shrinks and starved acquisitions hit the tier's paper-time
// deadline instead of wedging; at+T+restart the leak is repaid.
//
// Settings: at (default 30s), conns (connections to leak per tier,
// default 0 = all idle), restart (default 30s, 0 = never).
func buildLeak(env Env) (*StepInjector, error) {
	d := variant.NewSettingsDecoder(env.Set, nil)
	at := d.Duration("at", defaultAt)
	conns := d.Int("conns", 0)
	restart := d.Duration("restart", defaultRestart)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", Leak, err)
	}
	tiers, err := needTiers(env, Leak)
	if err != nil {
		return nil, err
	}
	in := NewInjector(env)
	in.Add(at, 0, fmt.Sprintf("leak %d primary connections", conns), func() {
		for _, t := range tiers {
			t.LeakConns(conns)
		}
	})
	if restart > 0 {
		in.Add(at+restart, 0, "release leaked connections", func() {
			for _, t := range tiers {
				t.ReleaseLeaked()
			}
		})
	}
	return in, nil
}
