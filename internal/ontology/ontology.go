// Package ontology defines the fault tags and failure categories that the
// paper's NLP stage assigns to disengagement causes (Table III), plus the
// mapping rules between them.
//
// Tags localize a fault to a subsystem of the autonomous driving system
// (ADS); categories roll tags up into machine-learning/design faults vs
// computing-system faults (vs unknown), the axis along which the paper's
// headline "64% of disengagements are ML-related" result is computed.
package ontology

import "fmt"

// Tag is a fault tag: the finest-grained fault localization the NLP stage
// produces.
type Tag int

// Fault tags from the paper's Table III, plus IncorrectBehaviorPrediction
// which appears in the paper's Fig. 6 tag legend (the Waymo phrasing
// "incorrect behavior prediction"), plus UnknownT for causes the voting
// scheme cannot match.
const (
	// TagUnknownT marks a cause that matched no dictionary entry.
	TagUnknownT Tag = iota + 1
	// TagEnvironment is a sudden change in external factors (construction
	// zones, emergency vehicles, accidents ahead, reckless road users).
	TagEnvironment
	// TagComputerSystem is a computer-system-related problem (e.g.
	// processor overload).
	TagComputerSystem
	// TagRecognitionSystem is a failure to recognize the outside
	// environment correctly.
	TagRecognitionSystem
	// TagPlanner is a planner failure to anticipate another driver's
	// behavior or produce an adequate motion plan.
	TagPlanner
	// TagSensor is a sensor failing to localize in time.
	TagSensor
	// TagNetwork is a data rate too high for the vehicle network.
	TagNetwork
	// TagDesignBug is an unforeseen situation the AV was not designed to
	// handle.
	TagDesignBug
	// TagSoftware is a software hang, crash, or bug.
	TagSoftware
	// TagAVControllerSystem is the AV controller not responding to
	// commands (the "System" half of the paper's dual AV Controller tag).
	TagAVControllerSystem
	// TagAVControllerML is the AV controller making wrong decisions or
	// predictions (the "ML/Design" half of the dual tag).
	TagAVControllerML
	// TagHangCrash is a watchdog timer error.
	TagHangCrash
	// TagIncorrectBehaviorPrediction is an incorrect prediction of another
	// road user's behavior (Fig. 6 legend).
	TagIncorrectBehaviorPrediction
)

// numTags is the count of defined tags (for iteration/validation).
const numTags = int(TagIncorrectBehaviorPrediction)

// AllTags lists every tag in display order (Fig. 6 legend order, with the
// dual AV Controller tag split and UnknownT last).
func AllTags() []Tag {
	return []Tag{
		TagAVControllerSystem, TagAVControllerML, TagComputerSystem,
		TagDesignBug, TagEnvironment, TagHangCrash,
		TagIncorrectBehaviorPrediction, TagNetwork, TagPlanner,
		TagRecognitionSystem, TagSensor, TagSoftware, TagUnknownT,
	}
}

// String implements fmt.Stringer with the paper's display names.
func (t Tag) String() string {
	switch t {
	case TagUnknownT:
		return "Unknown-T"
	case TagEnvironment:
		return "Environment"
	case TagComputerSystem:
		return "Computer System"
	case TagRecognitionSystem:
		return "Recognition System"
	case TagPlanner:
		return "Planner"
	case TagSensor:
		return "Sensor"
	case TagNetwork:
		return "Network"
	case TagDesignBug:
		return "Design Bug"
	case TagSoftware:
		return "Software"
	case TagAVControllerSystem:
		return "AV Controller (System)"
	case TagAVControllerML:
		return "AV Controller (ML)"
	case TagHangCrash:
		return "Hang/Crash"
	case TagIncorrectBehaviorPrediction:
		return "Incorrect Behavior Prediction"
	default:
		return fmt.Sprintf("Tag(%d)", int(t))
	}
}

// Category is a root failure category: the coarse ML-vs-system axis.
type Category int

// Failure categories from Table III.
const (
	// CategoryUnknownC holds tags that fit no category (and Unknown-T).
	CategoryUnknownC Category = iota + 1
	// CategoryMLDesign covers faults in the design of the machine learning
	// system (perception, planning and control).
	CategoryMLDesign
	// CategorySystem covers computing-system faults (hardware, software).
	CategorySystem
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryUnknownC:
		return "Unknown-C"
	case CategoryMLDesign:
		return "ML/Design"
	case CategorySystem:
		return "System"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// CategoryOf maps a tag to its failure category per Table III. The paper's
// dual "AV Controller" tag is represented here as two tags with fixed
// categories.
func CategoryOf(t Tag) Category {
	switch t {
	case TagEnvironment, TagRecognitionSystem, TagPlanner, TagDesignBug,
		TagAVControllerML, TagIncorrectBehaviorPrediction:
		return CategoryMLDesign
	case TagComputerSystem, TagSensor, TagNetwork, TagSoftware,
		TagAVControllerSystem, TagHangCrash:
		return CategorySystem
	default:
		return CategoryUnknownC
	}
}

// MLSubclass splits CategoryMLDesign tags along the paper's Table IV axis:
// perception/recognition-related vs planning/control-related. It reports
// ok=false for tags outside CategoryMLDesign.
//
// Perception covers interpretation of the environment from sensor data; the
// paper explicitly counts external fault sources (construction zones,
// cyclists, weather) as perception-related (§V-A2 footnote 5).
func MLSubclass(t Tag) (perception bool, ok bool) {
	switch t {
	case TagEnvironment, TagRecognitionSystem:
		return true, true
	case TagPlanner, TagDesignBug, TagAVControllerML, TagIncorrectBehaviorPrediction:
		return false, true
	default:
		return false, false
	}
}

// Definition returns the Table III definition text for a tag.
func Definition(t Tag) string {
	switch t {
	case TagEnvironment:
		return "Sudden change in external factors (e.g., construction zones, emergency vehicles, accidents)"
	case TagComputerSystem:
		return "Computer-system-related problem (e.g., processor overload)"
	case TagRecognitionSystem:
		return "Failure to recognize outside environment correctly"
	case TagPlanner:
		return "Planner failed to anticipate the other driver's behavior"
	case TagSensor:
		return "Sensor failed to localize in time"
	case TagNetwork:
		return "Data rate too high to be handled by the network"
	case TagDesignBug:
		return "AV was not designed to handle an unforeseen situation"
	case TagSoftware:
		return "Software-related problems such as hang or crash"
	case TagAVControllerSystem:
		return "AV controller does not respond to commands"
	case TagAVControllerML:
		return "AV controller makes wrong decisions/predictions"
	case TagHangCrash:
		return "Watchdog timer error"
	case TagIncorrectBehaviorPrediction:
		return "Incorrect prediction of another road user's behavior"
	case TagUnknownT:
		return "Cause text matched no known fault tag"
	default:
		return ""
	}
}
