package ontology

import (
	"strings"
	"testing"
)

func TestAllTagsComplete(t *testing.T) {
	tags := AllTags()
	if len(tags) != numTags {
		t.Fatalf("AllTags has %d entries, want %d", len(tags), numTags)
	}
	seen := make(map[Tag]bool)
	for _, tag := range tags {
		if seen[tag] {
			t.Errorf("duplicate tag %s", tag)
		}
		seen[tag] = true
	}
}

func TestCategoryOfTableIII(t *testing.T) {
	wantML := []Tag{
		TagEnvironment, TagRecognitionSystem, TagPlanner, TagDesignBug,
		TagAVControllerML, TagIncorrectBehaviorPrediction,
	}
	wantSys := []Tag{
		TagComputerSystem, TagSensor, TagNetwork, TagSoftware,
		TagAVControllerSystem, TagHangCrash,
	}
	for _, tag := range wantML {
		if CategoryOf(tag) != CategoryMLDesign {
			t.Errorf("CategoryOf(%s) = %s, want ML/Design", tag, CategoryOf(tag))
		}
	}
	for _, tag := range wantSys {
		if CategoryOf(tag) != CategorySystem {
			t.Errorf("CategoryOf(%s) = %s, want System", tag, CategoryOf(tag))
		}
	}
	if CategoryOf(TagUnknownT) != CategoryUnknownC {
		t.Error("Unknown-T should map to Unknown-C")
	}
}

func TestAVControllerDualRule(t *testing.T) {
	// The paper's Table III gives AV Controller both categories depending
	// on the failure mode; our split tags must land on opposite sides.
	if CategoryOf(TagAVControllerSystem) == CategoryOf(TagAVControllerML) {
		t.Error("dual AV Controller tags must map to different categories")
	}
}

func TestMLSubclass(t *testing.T) {
	cases := []struct {
		tag        Tag
		perception bool
		ok         bool
	}{
		{TagEnvironment, true, true},
		{TagRecognitionSystem, true, true},
		{TagPlanner, false, true},
		{TagDesignBug, false, true},
		{TagAVControllerML, false, true},
		{TagIncorrectBehaviorPrediction, false, true},
		{TagSoftware, false, false},
		{TagUnknownT, false, false},
	}
	for _, c := range cases {
		p, ok := MLSubclass(c.tag)
		if p != c.perception || ok != c.ok {
			t.Errorf("MLSubclass(%s) = (%v, %v), want (%v, %v)", c.tag, p, ok, c.perception, c.ok)
		}
	}
}

func TestStringersAndDefinitions(t *testing.T) {
	for _, tag := range AllTags() {
		if strings.HasPrefix(tag.String(), "Tag(") {
			t.Errorf("tag %d has no display name", tag)
		}
		if Definition(tag) == "" {
			t.Errorf("tag %s has no definition", tag)
		}
	}
	for _, c := range []Category{CategoryMLDesign, CategorySystem, CategoryUnknownC} {
		if strings.HasPrefix(c.String(), "Category(") {
			t.Errorf("category %d has no display name", c)
		}
	}
	if Tag(99).String() != "Tag(99)" {
		t.Error("unknown tag String fallback broken")
	}
	if Category(99).String() != "Category(99)" {
		t.Error("unknown category String fallback broken")
	}
	if Definition(Tag(99)) != "" {
		t.Error("unknown tag should have empty definition")
	}
}

func TestEveryTagHasCategory(t *testing.T) {
	for _, tag := range AllTags() {
		c := CategoryOf(tag)
		if c != CategoryMLDesign && c != CategorySystem && c != CategoryUnknownC {
			t.Errorf("tag %s has invalid category %v", tag, c)
		}
	}
}
