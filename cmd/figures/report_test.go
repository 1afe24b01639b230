package main

import (
	"strings"
	"testing"
)

// TestRenderSectionStoreFields checks that an out-of-core sweep section
// — as written by anonexplore -report after a run under a -mem budget —
// renders with its spill/compaction/checkpoint fields visible and the
// disk byte count humanized.
func TestRenderSectionStoreFields(t *testing.T) {
	section := map[string]any{
		"totalStates": float64(12011466),
		"spills":      float64(41),
		"compactions": float64(5),
		"replays":     float64(9),
		"checkpoints": float64(12),
		"diskBytes":   float64(168 << 20),
	}
	out := renderSection(section)
	for _, want := range []string{"spills", "41", "compactions", "5", "replays", "9", "checkpoints", "12", "168MiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered section missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "176160768") {
		t.Errorf("diskBytes rendered raw instead of humanized:\n%s", out)
	}
}

// TestRenderSectionCampaignCells checks that a campaign section — as
// written by anonsim -campaign -report and read back as generic JSON —
// renders its per-(algorithm, scheduler) cells as a table below the
// scalar summary fields.
func TestRenderSectionCampaignCells(t *testing.T) {
	section := map[string]any{
		"jobs": float64(400), "runs": float64(400),
		"violations": float64(0), "workers": float64(4), "totalSteps": float64(27100),
		"cells": []any{
			map[string]any{
				"algo": "snapshot", "sched": "pareto", "runs": float64(50),
				"crashes": float64(31), "stepsMean": 67.75,
				"stepsP50": 61.2, "stepsP90": 141.9, "stepsMax": float64(219),
			},
			map[string]any{
				"algo": "renaming", "sched": "bursty", "runs": float64(50),
				"violations": float64(2), "crashes": float64(28), "stepsMean": float64(70),
				"stepsP50": 66.0, "stepsP90": 150.5, "stepsMax": float64(240),
			},
		},
	}
	out := renderSection(section)
	for _, want := range []string{
		"algo", "sched", "p50", "p90",
		"snapshot", "pareto", "67.8", "61.2", "219",
		"renaming", "bursty", "66", "150.5", "240",
		"totalSteps", "27100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign section missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cells") {
		t.Errorf("cells rendered as a raw field instead of a table:\n%s", out)
	}
}

// TestRenderValuePassthrough pins that only diskBytes is humanized;
// ordinary numeric fields keep their exact JSON form.
func TestRenderValuePassthrough(t *testing.T) {
	if got := renderValue("totalStates", float64(1048576)); got != "1048576" {
		t.Errorf("totalStates rendered %q, want raw 1048576", got)
	}
	if got := renderValue("diskBytes", float64(1048576)); got != "1MiB" {
		t.Errorf("diskBytes rendered %q, want 1MiB", got)
	}
}
