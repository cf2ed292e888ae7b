package repolint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIStagesMatchMakefile holds the two descriptions of CI to one list:
// the prerequisites of the Makefile's ci target are exactly the `make
// <stage>` steps of the workflow's blocking jobs (those without
// continue-on-error), so a stage added to or dropped from one side fails
// here.
func TestCIStagesMatchMakefile(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	workflow, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	mk, wf := makefileCIStages(string(makefile)), workflowStages(string(workflow))
	if len(mk) == 0 {
		t.Fatal("the Makefile has no ci target with prerequisites")
	}
	if !slices.Equal(mk, wf) {
		t.Errorf("Makefile ci: %v\nci.yml blocking make steps: %v", mk, wf)
	}
}

// TestDetectsCIStageDrift feeds the two parsers a workflow that runs one
// stage fewer than the ci target, plus a stage in a continue-on-error job.
func TestDetectsCIStageDrift(t *testing.T) {
	makefile := "test:\n\tgo test ./...\n\nci: build test race\n"
	workflow := `jobs:
  build:
    steps:
      - run: make build
      - run: make test
  bench:
    continue-on-error: true
    steps:
      - name: profiles
        run: make race
`
	mk, wf := makefileCIStages(makefile), workflowStages(workflow)
	if want := []string{"build", "race", "test"}; !slices.Equal(mk, want) {
		t.Errorf("ci prerequisites %v, want %v", mk, want)
	}
	if want := []string{"build", "test"}; !slices.Equal(wf, want) {
		t.Errorf("blocking make steps %v, want %v", wf, want)
	}
}

// makefileCIStages returns the prerequisites of the Makefile's ci target,
// sorted.
func makefileCIStages(makefile string) []string {
	for _, line := range strings.Split(makefile, "\n") {
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			stages := strings.Fields(rest)
			slices.Sort(stages)
			return stages
		}
	}
	return nil
}

var (
	workflowJob  = regexp.MustCompile(`^  [\w-]+:\s*$`)
	workflowMake = regexp.MustCompile(`^\s*(?:- )?run:\s*make\s+([\w-]+)\s*$`)
)

// workflowStages returns the targets of the `make <stage>` steps of the
// workflow's jobs, sorted, leaving out every job marked continue-on-error.
// It reads the file line by line: a two-space-indented key opens a job (or,
// above jobs:, a key such as on:'s push, which holds no make step), and the
// job's steps and flags are the lines up to the next such key.
func workflowStages(workflow string) []string {
	var stages, job []string
	blocking := true
	flush := func() {
		if blocking {
			stages = append(stages, job...)
		}
		job, blocking = nil, true
	}
	for _, line := range strings.Split(workflow, "\n") {
		switch {
		case workflowJob.MatchString(line):
			flush()
		case strings.TrimSpace(line) == "continue-on-error: true":
			blocking = false
		default:
			if m := workflowMake.FindStringSubmatch(line); m != nil {
				job = append(job, m[1])
			}
		}
	}
	flush()
	slices.Sort(stages)
	return stages
}
