package stpa

import (
	"strings"
	"testing"

	"avfda/internal/ontology"
)

func TestStructureValidates(t *testing.T) {
	s := NewADSStructure()
	if err := s.Validate(); err != nil {
		t.Fatalf("Fig. 3 structure invalid: %v", err)
	}
}

func TestStructureShape(t *testing.T) {
	s := NewADSStructure()
	if got := len(s.Components()); got != 10 {
		t.Errorf("components = %d, want 10", got)
	}
	if got := len(s.Loops()); got != 3 {
		t.Errorf("loops = %d, want 3 (CL-1..CL-3)", got)
	}
	ids := map[string]bool{}
	for _, l := range s.Loops() {
		ids[l.ID] = true
	}
	for _, want := range []string{"CL-1", "CL-2", "CL-3"} {
		if !ids[want] {
			t.Errorf("missing loop %s", want)
		}
	}
}

func TestComponentLookup(t *testing.T) {
	s := NewADSStructure()
	c, err := s.Component(CompRecognition)
	if err != nil {
		t.Fatal(err)
	}
	if c.Layer != LayerAutonomous {
		t.Errorf("recognition layer = %d", c.Layer)
	}
	if _, err := s.Component("bogus"); err == nil {
		t.Error("unknown component: want error")
	}
}

func TestLoopsContaining(t *testing.T) {
	s := NewADSStructure()
	// The driver appears only in CL-2.
	loops := s.LoopsContaining(CompDriver)
	if len(loops) != 1 || loops[0].ID != "CL-2" {
		t.Errorf("driver loops = %v", loops)
	}
	// The planner appears in all three.
	if got := len(s.LoopsContaining(CompPlanner)); got != 3 {
		t.Errorf("planner loop count = %d, want 3", got)
	}
	if got := s.LoopsContaining("bogus"); got != nil {
		t.Errorf("unknown component loops = %v", got)
	}
}

func TestTagLocusCoversAllTags(t *testing.T) {
	s := NewADSStructure()
	for _, tag := range ontology.AllTags() {
		if tag == ontology.TagUnknownT {
			if _, err := TagLocus(tag); err == nil {
				t.Error("Unknown-T should have no locus")
			}
			continue
		}
		locus, err := TagLocus(tag)
		if err != nil {
			t.Errorf("TagLocus(%s): %v", tag, err)
			continue
		}
		if _, err := s.Component(locus); err != nil {
			t.Errorf("TagLocus(%s) = %q, not in structure", tag, locus)
		}
	}
}

func TestCausalAnalysis(t *testing.T) {
	s := NewADSStructure()
	factors, err := s.CausalAnalysis(ontology.TagRecognitionSystem)
	if err != nil {
		t.Fatal(err)
	}
	if len(factors) == 0 {
		t.Fatal("no causal factors for recognition fault")
	}
	for _, f := range factors {
		if f.Component != CompRecognition {
			t.Errorf("factor component = %s, want recognition", f.Component)
		}
		// ML faults produce unsafe/untimely actions.
		if f.UCA != UCAProvidedUnsafe && f.UCA != UCAWrongTiming {
			t.Errorf("ML fault UCA = %s", f.UCA)
		}
	}
	// System faults produce not-provided / stopped-too-soon.
	factors, err = s.CausalAnalysis(ontology.TagHangCrash)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range factors {
		if f.UCA != UCANotProvided && f.UCA != UCAStoppedTooSoon {
			t.Errorf("system fault UCA = %s", f.UCA)
		}
	}
	if _, err := s.CausalAnalysis(ontology.TagUnknownT); err == nil {
		t.Error("Unknown-T: want error")
	}
}

func TestCaseStudies(t *testing.T) {
	s := NewADSStructure()
	for _, sc := range []Scenario{CaseStudyI(), CaseStudyII()} {
		a, err := s.Analyze(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(a.Inadequate) == 0 {
			t.Errorf("%s: no inadequate control actions found", sc.Name)
		}
		if len(a.Loops) == 0 {
			t.Errorf("%s: no control loops involved", sc.Name)
		}
		if len(a.Factors) == 0 {
			t.Errorf("%s: no causal factors", sc.Name)
		}
		text := a.Render()
		if !strings.Contains(text, sc.Name) || !strings.Contains(text, "causal factors") {
			t.Errorf("%s: render incomplete:\n%s", sc.Name, text)
		}
	}
}

func TestCaseStudyIMatchesPaper(t *testing.T) {
	// Case study I's inadequate actions are the late perception and the
	// yield-without-stop decision — both in the autonomous stack.
	s := NewADSStructure()
	a, err := s.Analyze(CaseStudyI())
	if err != nil {
		t.Fatal(err)
	}
	actors := map[ComponentID]bool{}
	for _, ev := range a.Inadequate {
		actors[ev.Actor] = true
	}
	if !actors[CompRecognition] || !actors[CompPlanner] {
		t.Errorf("case study I inadequate actors = %v, want recognition+planner", actors)
	}
	// CL-1 (full autonomous loop) must be implicated.
	found := false
	for _, id := range a.Loops {
		if id == "CL-1" {
			found = true
		}
	}
	if !found {
		t.Error("case study I should implicate CL-1")
	}
}

func TestAnalyzeRejectsUnknownActor(t *testing.T) {
	s := NewADSStructure()
	bad := Scenario{
		Name: "bad",
		Tag:  ontology.TagPlanner,
		Timeline: []ScenarioEvent{
			{Actor: "martian", Action: "lands"},
		},
	}
	if _, err := s.Analyze(bad); err == nil {
		t.Error("unknown actor: want error")
	}
}

func TestUCAStrings(t *testing.T) {
	for _, u := range []UCAType{UCANotProvided, UCAProvidedUnsafe, UCAWrongTiming, UCAStoppedTooSoon} {
		if strings.HasPrefix(u.String(), "UCAType(") {
			t.Errorf("UCA %d has no display name", u)
		}
	}
	if EdgeKind(ControlAction).String() != "control" || EdgeKind(Feedback).String() != "feedback" {
		t.Error("edge kind strings wrong")
	}
}
