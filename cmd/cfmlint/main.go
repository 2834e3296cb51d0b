// Command cfmlint machine-checks the simulator's source-level
// invariants with nine passes: determinism (no wall clocks, no global
// rand, no stray concurrency, no unsorted map iteration in digests), RNG
// draw discipline for skip-ahead, PhaseMask/Tick agreement, hot-path
// allocation hygiene, metric-name validity, guarded flight-recorder
// emission, struct-of-arrays arena layout, shard purity of every
// TickShard call graph, and the checkpoint contract (stateful tickers
// implement sim.Stater; every Stater's SaveState/LoadState are symmetric
// and account for each persistent field).
//
// Usage:
//
//	go run ./cmd/cfmlint ./...
//	go run ./cmd/cfmlint -passes shardpure,statecover ./internal/core
//	go run ./cmd/cfmlint -format=github ./...
//	go run ./cmd/cfmlint -list
//
// It is pure stdlib (go/ast, go/parser, go/types, go/importer — no
// x/tools) and exits nonzero when any pass reports a finding, so CI can
// gate on it. The default -format=text prints position-annotated lines:
//
//	internal/foo/foo.go:42:7: [determinism] goroutine creation outside ...
//
// -format=github emits GitHub Actions workflow commands instead
// (::error file=...,line=...,col=...::message), so findings surface as
// inline annotations on the pull request diff.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cfm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cfmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	selected := fs.String("passes", "", "comma-separated pass names to run (default: all)")
	format := fs.String("format", "text", "diagnostic format: text or github")
	list := fs.Bool("list", false, "list the passes and exit")
	verbose := fs.Bool("v", false, "print each package as it is checked")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cfmlint [flags] [packages]\n\npackages are directories, or directories with a /... suffix (default ./...)\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(stderr, "cfmlint: unknown -format %q (want text or github)\n", *format)
		return 2
	}

	passes := lint.Passes()
	if *list {
		for _, p := range passes {
			fmt.Fprintf(stdout, "%-14s %s\n", p.Name, p.Doc)
		}
		return 0
	}
	if *selected != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*selected, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*lint.Pass
		for _, p := range passes {
			if keep[p.Name] {
				delete(keep, p.Name)
				filtered = append(filtered, p)
			}
		}
		if len(keep) > 0 {
			var unknown []string
			for name := range keep {
				unknown = append(unknown, name)
			}
			fmt.Fprintf(stderr, "cfmlint: unknown pass(es) %s; -list shows the suite\n", strings.Join(unknown, ", "))
			return 2
		}
		passes = filtered
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "cfmlint: %v\n", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "cfmlint: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintf(stderr, "cfmlint: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}

	reporter := lint.NewReporter(loader.Fset)
	failed := false
	for _, dir := range dirs {
		target, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "cfmlint: %v\n", err)
			failed = true
			continue
		}
		if *verbose {
			fmt.Fprintf(stderr, "cfmlint: checking %s\n", target.Path)
		}
		for _, p := range passes {
			p.Run(target, reporter)
		}
	}

	diags := reporter.Diagnostics()
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		if *format == "github" {
			fmt.Fprintln(stdout, githubCommand(d))
		} else {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cfmlint: %d finding(s)\n", len(diags))
		return 1
	}
	if failed {
		return 2
	}
	return 0
}

// githubCommand renders a diagnostic as a GitHub Actions ::error
// workflow command, which the runner turns into an inline annotation on
// the pull-request diff. The message data must percent-escape the
// command's metacharacters.
func githubCommand(d lint.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s",
		githubEscapeProp(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
		githubEscapeData(fmt.Sprintf("[%s] %s", d.Pass, d.Message)))
}

// githubEscapeData escapes a workflow-command message.
func githubEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProp escapes a workflow-command property value, which
// additionally delimits on ':' and ','.
func githubEscapeProp(s string) string {
	s = githubEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
