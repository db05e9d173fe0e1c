package eval

import "wgtt/internal/core"

// Experiment names one regenerable table or figure.
type Experiment struct {
	// ID is the paper artifact ("fig13", "table2", "ablation-ba", …).
	ID string
	// Title describes what it shows.
	Title string
	// Run executes the experiment.
	Run func(Options) (Result, error)
}

// Experiments returns every regenerable artifact, in paper order, followed
// by the ablations from DESIGN.md §4.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "Best-AP churn at millisecond timescales (25 mph)",
			func(o Options) (Result, error) { return Fig02BestAPChurn(o) }},
		{"fig4", "Enhanced 802.11r roaming failure (§2)",
			func(o Options) (Result, error) { return Fig04RoamingFailure(o) }},
		{"fig10", "ESNR heatmap along the road",
			func(o Options) (Result, error) { return Fig10Heatmap(o) }},
		{"table1", "Switching protocol execution time",
			func(o Options) (Result, error) { return Table1SwitchTime(o) }},
		{"fig13", "TCP/UDP throughput vs speed",
			func(o Options) (Result, error) { return Fig13ThroughputVsSpeed(o) }},
		{"fig14", "TCP timeline at 15 mph (WGTT + baseline)",
			func(o Options) (Result, error) { return bothTimelines(o, true) }},
		{"fig15", "UDP timeline at 15 mph (WGTT + baseline)",
			func(o Options) (Result, error) { return bothTimelines(o, false) }},
		{"fig16", "Link bit rate CDF",
			func(o Options) (Result, error) { return Fig16BitrateCDF(o) }},
		{"table2", "Switching accuracy",
			func(o Options) (Result, error) { return Table2SwitchingAccuracy(o) }},
		{"fig17", "Per-client throughput, 1–3 clients",
			func(o Options) (Result, error) { return Fig17MultiClient(o) }},
		{"fig18", "Uplink loss, 3 clients",
			func(o Options) (Result, error) { return Fig18UplinkLoss(o) }},
		{"fig20", "Driving patterns (following/parallel/opposing)",
			func(o Options) (Result, error) { return Fig20DrivingPatterns(o) }},
		{"fig21", "Selection window size sweep",
			func(o Options) (Result, error) { return Fig21WindowSize(o) }},
		{"table3", "Link-layer ACK collision rate",
			func(o Options) (Result, error) { return Table3AckCollision(o) }},
		{"fig22", "Switching hysteresis sweep",
			func(o Options) (Result, error) { return Fig22Hysteresis(o) }},
		{"fig23", "Dense vs sparse AP segments",
			func(o Options) (Result, error) { return Fig23APDensity(o) }},
		{"table4", "Video rebuffer ratio",
			func(o Options) (Result, error) { return Table4VideoRebuffer(o) }},
		{"fig24", "Video conference frame rate",
			func(o Options) (Result, error) { return Fig24ConferenceFPS(o) }},
		{"table5", "Web page load time",
			func(o Options) (Result, error) { return Table5PageLoad(o) }},
		{"ablation-ba", "Ablation: Block ACK forwarding",
			func(o Options) (Result, error) { return AblationBAForwarding(o) }},
		{"ablation-uplink", "Ablation: uplink multi-AP reception",
			func(o Options) (Result, error) { return AblationUplinkDiversity(o) }},
		{"ablation-fanout", "Ablation: cyclic-queue fan-out",
			func(o Options) (Result, error) { return AblationFanout(o) }},
		{"ablation-median", "Ablation: selection statistic",
			func(o Options) (Result, error) { return AblationSelectionMetric(o) }},
		{"ext-multichannel", "Extension (§7): multi-channel deployment",
			func(o Options) (Result, error) { return ExtMultiChannel(o) }},
		{"ext-controlloss", "Extension: control-packet loss robustness",
			func(o Options) (Result, error) { return ExtControlLoss(o) }},
		{"ext-omni", "Extension (§4.2): omni small-cell antennas",
			func(o Options) (Result, error) { return ExtOmni(o) }},
		{"ext-scale", "Extension (§7): 16-AP corridor scale-out",
			func(o Options) (Result, error) { return ExtScale(o) }},
		{"ext-resilience", "Extension (§11): AP-crash fault injection and recovery",
			func(o Options) (Result, error) { return ExtResilience(o) }},
		{"ext-federation", "Extension (§13): sharded controller tier and inter-controller handoff",
			func(o Options) (Result, error) { return ExtFederation(o) }},
		{"ext-selector", "Extension (§15): AP-selection policy ablation",
			func(o Options) (Result, error) { return ExtSelector(o) }},
		{"ext-urban", "Extension (§16): urban street-grid city with bus riders",
			func(o Options) (Result, error) { return ExtUrban(o) }},
		{"ext-metro", "Extension (§17): connected metro vs isolated tiles",
			func(o Options) (Result, error) { return ExtMetro(o) }},
	}
}

// multiResult concatenates several results.
type multiResult []Result

// Render implements Result.
func (m multiResult) Render() string {
	out := ""
	for _, r := range m {
		out += r.Render()
	}
	return out
}

func bothTimelines(o Options, tcp bool) (Result, error) {
	var out multiResult
	w, err := Timeline(core.ModeWGTT, o, tcp)
	if err != nil {
		return nil, err
	}
	b, err := Timeline(core.ModeBaseline, o, tcp)
	if err != nil {
		return nil, err
	}
	out = append(out, w, b)
	return out, nil
}
