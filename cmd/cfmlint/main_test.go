package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRepoIsClean is the self-hosting guarantee CI gates on: the whole
// repository lints clean, so any new finding is a regression introduced
// by the change under review.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Fatalf("cfmlint on the repo exited %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run printed findings:\n%s", out.String())
	}
}

// TestFixturesFailReadably runs the driver over a violation fixture and
// pins the output contract: exit code 1, one file:line:col-prefixed
// line per finding with the pass name in brackets, and a count on
// stderr.
func TestFixturesFailReadably(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-passes", "determinism", "../../internal/lint/testdata/src/determinism/pos"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lineRE := regexp.MustCompile(`(?m)^.*determinism/pos/pos\.go:\d+:\d+: \[determinism\] .+$`)
	if got := len(lineRE.FindAllString(out.String(), -1)); got < 3 {
		t.Fatalf("want at least 3 position-annotated findings, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Fatalf("stderr lacks the findings count: %q", errb.String())
	}
}

// TestListNamesTheSuite pins -list output to the nine-pass suite, in
// order, one pass per line.
func TestListNamesTheSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"determinism", "rng-discipline", "phasemask", "hotpath-alloc", "metric-names", "flight", "soalayout", "shardpure", "statecover"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want %v:\n%s", got, want, out.String())
	}
}

// TestPassesFlagSelectsPasses pins -passes pass selection: the
// shardpure fixture must fire under -passes shardpure and stay silent
// when only phasemask runs.
func TestPassesFlagSelectsPasses(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-passes", "shardpure", "../../internal/lint/testdata/src/shardpure/pos"}, &out, &errb); code != 1 {
		t.Fatalf("-passes shardpure on the violation fixture exited %d, want 1\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[shardpure]") {
		t.Fatalf("findings lack the shardpure tag:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-passes", "phasemask", "../../internal/lint/testdata/src/shardpure/pos"}, &out, &errb); code != 0 {
		t.Fatalf("-passes phasemask on the shardpure fixture exited %d, want 0\nstdout:\n%s", code, out.String())
	}
}

// TestGithubFormat pins the -format=github output contract: one
// ::error workflow command per finding carrying file/line/col
// properties, with command metacharacters percent-escaped.
func TestGithubFormat(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-format", "github", "-passes", "determinism", "../../internal/lint/testdata/src/determinism/pos"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	cmdRE := regexp.MustCompile(`(?m)^::error file=[^,]+,line=\d+,col=\d+::\[determinism\] .+$`)
	if got := len(cmdRE.FindAllString(out.String(), -1)); got < 3 {
		t.Fatalf("want at least 3 ::error commands, got %d:\n%s", got, out.String())
	}
	if strings.Contains(out.String(), "\n\n") {
		t.Fatalf("multi-line command leaked an unescaped newline:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-format", "sarif", "."}, &out, &errb); code != 2 {
		t.Fatalf("unknown format exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") {
		t.Fatalf("stderr lacks the format hint: %q", errb.String())
	}
}

// TestGithubEscaping pins the percent-escape rules for workflow
// commands.
func TestGithubEscaping(t *testing.T) {
	if got, want := githubEscapeData("50% is\nfine\r"), "50%25 is%0Afine%0D"; got != want {
		t.Errorf("githubEscapeData = %q, want %q", got, want)
	}
	if got, want := githubEscapeProp("a:b,c%"), "a%3Ab%2Cc%25"; got != want {
		t.Errorf("githubEscapeProp = %q, want %q", got, want)
	}
}

// TestUnknownPassIsUsageError pins the -passes validation.
func TestUnknownPassIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-passes", "nope", "."}, &out, &errb); code != 2 {
		t.Fatalf("-passes nope exited %d, want 2\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown pass") {
		t.Fatalf("stderr lacks the unknown-pass hint: %q", errb.String())
	}
}
