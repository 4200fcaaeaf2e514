// Package shard names a shared core.Router by its sharded role. Dispatch,
// placement, promotion and per-shard QoS all live in core.Router; the type
// remains only because the repository benchmark (perfbench) is compiled
// against (*stack.NVMetro).Fleet() returning a *Fleet with Router and Info.
package shard

import "nvmetro/internal/core"

// Fleet is a core.Router viewed as a fleet of per-core dispatch shards.
type Fleet core.Router

// Router returns the underlying router.
func (f *Fleet) Router() *core.Router { return (*core.Router)(f) }

// Info snapshots every shard's tenant assignment, promotion state and
// inbox depths.
func (f *Fleet) Info() []core.ShardInfo { return f.Router().ShardInfos() }
