package experiments

// Step is one table, figure or study of the full campaign.
type Step struct {
	Key string // selector: table1, fig10, ablation, seeds, ...
	Run func() (*FigResult, error)
}

// Steps lists, in output order, every result `salus-bench -all` prints.
// seeds is the seed-set count of the seed-stability study; below 2 it
// runs 3. Runs are memoised in r, so steps that share simulations
// (Fig. 10, 11 and 12, for one) pay for them once.
func (r *Runner) Steps(seeds int) []Step {
	if seeds < 2 {
		seeds = 3
	}
	s := r.Settings
	return []Step{
		{"table1", func() (*FigResult, error) { return Table1(s.Cfg), nil }},
		{"table2", func() (*FigResult, error) { return Table2(s.Cfg), nil }},
		{"workloads", func() (*FigResult, error) { return WorkloadTable(s), nil }},
		{"coverage", func() (*FigResult, error) { return ChannelCoverage(s) }},
		{"fig3", r.Fig3},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"fig12", r.Fig12},
		{"fig13", r.Fig13},
		{"fig14", r.Fig14},
		{"ablation", r.Ablation},
		{"sensitivity", r.MetaCacheSensitivity},
		{"counters", r.CounterOrganisation},
		{"migration", r.MigrationGranularity},
		{"seeds", func() (*FigResult, error) { return r.SeedStability(seeds) }},
	}
}
