package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"anonshm/internal/obs"
	"anonshm/internal/store"
	"anonshm/internal/trace"
)

// runLoad renders report files written by anonexplore/anonsim -report
// back into readable tables: one block per file with the tool line, the
// structured sections, and the final metrics snapshot.
func runLoad(paths []string) error {
	for i, path := range paths {
		if i > 0 {
			fmt.Println()
		}
		rep, err := obs.ReadReportFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("== %s — %s %s\n\n", path, rep.Tool, strings.Join(rep.Args, " "))
		names := make([]string, 0, len(rep.Sections))
		for name := range rep.Sections {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("[%s]\n", name)
			fmt.Print(renderSection(rep.Sections[name]))
			fmt.Println()
		}
		if len(rep.Metrics) > 0 {
			fmt.Printf("[metrics]\n")
			fmt.Print(metricsTable(rep.Metrics))
		}
	}
	return nil
}

// renderSection renders one report section. JSON objects become sorted
// key/value tables; a campaign section (recognized by its "cells" array)
// additionally gets its per-(algorithm, scheduler) aggregates as a
// table; everything else prints as compact JSON.
func renderSection(v any) string {
	m, ok := v.(map[string]any)
	if !ok {
		return compactJSON(v) + "\n"
	}
	var cellTable string
	if cells, ok := m["cells"].([]any); ok {
		cellTable = campaignCellsTable(cells)
		delete(m, "cells")
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, []string{k, renderValue(k, m[k])})
	}
	return trace.Table([]string{"field", "value"}, rows) + cellTable
}

// campaignCellsTable renders an anonsim -campaign report's per-cell
// step-count distributions — the same layout the campaign prints live.
func campaignCellsTable(cells []any) string {
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		cell, ok := c.(map[string]any)
		if !ok {
			continue
		}
		str := func(k string) string {
			switch v := cell[k].(type) {
			case string:
				return v
			case float64:
				if v == float64(int64(v)) {
					return fmt.Sprintf("%d", int64(v))
				}
				return fmt.Sprintf("%.1f", v)
			case nil:
				return "0"
			default:
				return compactJSON(v)
			}
		}
		rows = append(rows, []string{
			str("algo"), str("sched"), str("runs"), str("violations"),
			str("crashes"), str("stepsMean"), str("stepsP50"), str("stepsP90"), str("stepsMax"),
		})
	}
	if len(rows) == 0 {
		return ""
	}
	return trace.Table([]string{"algo", "sched", "runs", "viol", "crashes", "mean", "p50", "p90", "max"}, rows)
}

// renderValue renders one section value. Byte-count fields written by
// the out-of-core store (diskBytes, diskFootprint) are humanized —
// "161MiB" reads, 168821440 does not.
func renderValue(key string, v any) string {
	if key == "diskBytes" || key == "diskFootprint" {
		if f, ok := v.(float64); ok && f >= 0 && f == float64(int64(f)) {
			return store.Bytes(f).String()
		}
	}
	return compactJSON(v)
}

// metricsTable renders a metrics snapshot: name, labels, kind and value
// (count/sum for histograms).
func metricsTable(points []obs.MetricPoint) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		value := formatFloat(p.Value)
		if p.Kind == "histogram" {
			value = fmt.Sprintf("count=%d sum=%s", p.Count, formatFloat(p.Sum))
		}
		rows = append(rows, []string{p.Name, formatLabels(p.Labels), p.Kind, value})
	}
	return trace.Table([]string{"metric", "labels", "kind", "value"}, rows)
}

func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func compactJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(data)
}
