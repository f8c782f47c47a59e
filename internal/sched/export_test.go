package sched

// NoFastPaths returns cfg with the parametric MinDist cache and the
// incremental Estart/Lstart maintenance disabled, so every step
// recomputes both from scratch. The direct path is the reference side
// of the fast-path differential tests and benchmarks; it is reachable
// only from tests.
func NoFastPaths(cfg Config) Config {
	cfg.noFastPaths = true
	return cfg
}
