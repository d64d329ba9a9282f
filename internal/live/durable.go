package live

import (
	"fmt"
	"path/filepath"
	"sync"

	dnode "d3t/internal/node"
	"d3t/internal/tree"
)

// This file is the live transport's durability layer: NewDurableCluster
// recovers every (node, shard) core from its write-ahead log directory
// before the goroutines start, so a rebuilt repository resumes with its
// exact pre-crash values and edge filter state instead of rejoining cold.
// The glue is node.Durable (which also states the log-after-apply rule
// that pass follows); live's share is the directory naming,
// Dir/repoNNN/shardMM, and the lock: every call on a shard's Durable
// happens under that shard's mutex.

// NewDurableCluster builds (but does not start) a live cluster whose
// per-shard cores are backed by write-ahead logs under
// opts.Durability.Dir, recovering whatever state those directories
// already hold. Shard recoveries run concurrently; any open or replay
// failure closes the logs already opened and fails construction.
func NewDurableCluster(o *tree.Overlay, opts Options) (*Cluster, error) {
	if opts.Durability == nil {
		return nil, fmt.Errorf("live: NewDurableCluster needs Options.Durability")
	}
	c := NewCluster(o, opts)
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		openErr error
	)
	for _, n := range c.nodes {
		for si, sh := range n.shards {
			n, si, sh := n, si, sh
			wg.Add(1)
			go func() {
				defer wg.Done()
				dir := filepath.Join(opts.Durability.Dir,
					fmt.Sprintf("repo%03d", n.repo.ID), fmt.Sprintf("shard%02d", si))
				// A sharded node serves sessions from its dedicated serve-only
				// core; it gets the recovered values too, so a late
				// subscriber's admission resync pushes pre-crash state, not
				// zeroes.
				var recovered map[string]float64
				if n.sessCore != nil {
					recovered = make(map[string]float64)
				}
				sh.mu.Lock()
				dur, _, err := dnode.OpenDurable(dir, *opts.Durability, sh.core, recovered)
				sh.dur = dur
				sh.mu.Unlock()
				if err != nil {
					errMu.Lock()
					if openErr == nil {
						openErr = err
					}
					errMu.Unlock()
					return
				}
				n.mu.Lock()
				for item, v := range recovered {
					n.sessCore.SetValue(item, v)
				}
				n.mu.Unlock()
			}()
		}
	}
	wg.Wait()
	if openErr != nil {
		c.closeLogs()
		return nil, openErr
	}
	return c, nil
}

// eachLog calls fn on every shard's write-ahead log glue (nil without
// durability), under the shard mutex that guards it.
func (c *Cluster) eachLog(fn func(d *dnode.Durable)) {
	for _, n := range c.nodes {
		for _, sh := range n.shards {
			sh.mu.Lock()
			fn(sh.dur)
			sh.mu.Unlock()
		}
	}
}

// closeLogs closes every shard's write-ahead log.
func (c *Cluster) closeLogs() { c.eachLog((*dnode.Durable).Close) }

// DurabilityErr reports a write-ahead-log failure the cluster hit (each
// shard latches its first), or nil. After a non-nil error, commits may
// be missing from what a recovery over the same directories replays.
func (c *Cluster) DurabilityErr() error {
	var err error
	c.eachLog(func(d *dnode.Durable) {
		if err == nil {
			err = d.Err()
		}
	})
	return err
}
