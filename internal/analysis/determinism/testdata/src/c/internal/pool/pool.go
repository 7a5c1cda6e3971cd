// Package pool is a stand-in for the repository's bounded worker pool:
// the determinism analyzer matches pool.Run by package and function name,
// so this stub lets fixtures exercise the parallel-accumulation rule
// without importing the real module.
package pool

import "context"

// Run mimics the real scheduler's signature; fixtures never execute it.
func Run(ctx context.Context, n, workers int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
