package fleet

import (
	"context"
	"fmt"
	"time"

	"repro/leakprof"
)

// Shard partitions read straight from the simulator, for in-process
// shard workers. Sharded sweeps over real endpoints and report handoffs
// run through the mode runner in internal/chaos.

// ShardSource returns a Source sweeping only the services owned by shard
// (of shards total) on the fleet's current day — the partition a shard
// worker would be configured with in a real deployment.
func (f *Fleet) ShardSource(shard, shards int) leakprof.Source {
	return shardFleetSource{f: f, shard: shard, shards: shards}
}

type shardFleetSource struct {
	f             *Fleet
	shard, shards int
}

func (s shardFleetSource) Name() string {
	if s.shards <= 1 {
		return "fleet"
	}
	return fmt.Sprintf("fleet-shard-%d/%d", s.shard, s.shards)
}

func (s shardFleetSource) Sweep(ctx context.Context, env *leakprof.SweepEnv) error {
	at := s.f.origin.Add(time.Duration(s.f.Day) * 24 * time.Hour)
	for _, svc := range s.f.Services {
		if leakprof.ShardOfService(svc.Cfg.Name, s.shards) != s.shard {
			continue
		}
		for _, in := range svc.instances {
			if err := ctx.Err(); err != nil {
				return err
			}
			if s.f.FetchLatency > 0 {
				time.Sleep(s.f.FetchLatency)
			}
			env.Emit(in.snapshotAggregated(at))
		}
	}
	return nil
}
