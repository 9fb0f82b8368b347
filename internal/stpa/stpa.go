// Package stpa models the AV hierarchical control structure of the paper's
// Fig. 3 using Systems-Theoretic Process Analysis (STPA, Leveson 2011).
//
// STPA treats accidents as the result of inadequate control rather than
// component failure chains: controllers at each layer impose safety
// constraints on the layers below and receive feedback from them. The
// structure here encodes the autonomous driving system (ADS) — sensors,
// recognition, planner & controller, follower, actuators — together with
// the human safety driver and surrounding non-AV drivers, and the three
// control loops (CL-1, CL-2, CL-3) the paper highlights. Fault tags from
// the NLP stage are localized onto this structure to produce causal
// explanations of disengagements and accidents.
package stpa

import (
	"errors"
	"fmt"

	"avfda/internal/ontology"
)

// ComponentID identifies one element of the control structure.
type ComponentID string

// Components of the ADS hierarchical control structure (Fig. 3).
const (
	CompDriver      ComponentID = "driver"        // AV safety driver
	CompNonAVDriver ComponentID = "non-av-driver" // drivers of surrounding vehicles
	CompSensors     ComponentID = "sensors"       // GPS, RADAR, LIDAR, camera, SONAR
	CompRecognition ComponentID = "recognition"   // perception system
	CompPlanner     ComponentID = "planner"       // planner & controller
	CompFollower    ComponentID = "follower"      // path follower
	CompActuators   ComponentID = "actuators"
	CompMechanical  ComponentID = "mechanical" // mechanical components of the AV
	CompNetwork     ComponentID = "network"    // in-vehicle data network
	CompEnvironment ComponentID = "environment"
)

// Layer places a component in the control hierarchy: lower layers are
// closer to the physical process.
type Layer int

// Hierarchy layers, top down.
const (
	LayerHuman Layer = iota + 1
	LayerAutonomous
	LayerMechanicalSys
	LayerProcess
)

// Component is one node of the control structure.
type Component struct {
	ID          ComponentID
	Name        string
	Layer       Layer
	Description string
}

// EdgeKind distinguishes control actions (downward) from feedback (upward).
type EdgeKind int

// Edge kinds.
const (
	ControlAction EdgeKind = iota + 1
	Feedback
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	if k == ControlAction {
		return "control"
	}
	return "feedback"
}

// Edge is a directed control or feedback channel between components.
type Edge struct {
	From, To ComponentID
	Kind     EdgeKind
	Label    string
}

// ControlLoop is a named cycle through the structure, like the paper's
// CL-1..CL-3.
type ControlLoop struct {
	ID          string
	Description string
	// Path lists the component sequence; the loop closes from the last
	// element back to the first.
	Path []ComponentID
}

// Structure is the full hierarchical control structure.
type Structure struct {
	components map[ComponentID]Component
	order      []ComponentID
	edges      []Edge
	loops      []ControlLoop
}

// NewADSStructure builds the paper's Fig. 3 control structure.
func NewADSStructure() *Structure {
	s := &Structure{components: make(map[ComponentID]Component)}
	for _, c := range []Component{
		{CompDriver, "AV Safety Driver", LayerHuman,
			"Human fall-back required by Level 3 autonomy; takes control on disengagement."},
		{CompNonAVDriver, "Non-AV Driver", LayerHuman,
			"Drivers of surrounding conventional vehicles; observed through sensors, informed via signals."},
		{CompSensors, "Sensors", LayerAutonomous,
			"GPS, RADAR, LIDAR, cameras, SONAR collecting environment data."},
		{CompRecognition, "Recognition System", LayerAutonomous,
			"Perception: identifies objects and changes in the environment from sensor data."},
		{CompPlanner, "Planner & Controller", LayerAutonomous,
			"Plans the next motion from AV state and environment; issues control actions."},
		{CompFollower, "Follower", LayerAutonomous,
			"Signals actuators to drive the vehicle along the planned path."},
		{CompActuators, "Actuators", LayerMechanicalSys,
			"Steering, throttle, and brake actuation."},
		{CompMechanical, "Mechanical Components", LayerMechanicalSys,
			"The controlled physical process: the vehicle itself."},
		{CompNetwork, "Vehicle Network", LayerAutonomous,
			"In-vehicle buses carrying sensor data and commands."},
		{CompEnvironment, "Environment", LayerProcess,
			"Roads, traffic, pedestrians, weather: the outer controlled context."},
	} {
		s.components[c.ID] = c
		s.order = append(s.order, c.ID)
	}
	s.edges = []Edge{
		{CompEnvironment, CompSensors, Feedback, "physical observables"},
		{CompSensors, CompRecognition, Feedback, "raw sensor data"},
		{CompRecognition, CompPlanner, Feedback, "scene model / object list"},
		{CompPlanner, CompFollower, ControlAction, "motion plan"},
		{CompFollower, CompActuators, ControlAction, "actuation commands"},
		{CompActuators, CompMechanical, ControlAction, "steering / acceleration"},
		{CompMechanical, CompEnvironment, ControlAction, "vehicle motion"},
		{CompMechanical, CompSensors, Feedback, "odometry / vehicle state"},
		{CompPlanner, CompDriver, Feedback, "takeover request / alerts"},
		{CompDriver, CompPlanner, ControlAction, "engage / disengage"},
		{CompDriver, CompMechanical, ControlAction, "manual steering and braking"},
		{CompMechanical, CompDriver, Feedback, "vehicle behavior"},
		{CompMechanical, CompNonAVDriver, Feedback, "brake signals / turn indicators / horn"},
		{CompNonAVDriver, CompEnvironment, ControlAction, "other-vehicle motion"},
		{CompNetwork, CompPlanner, Feedback, "bus data delivery"},
		{CompSensors, CompNetwork, Feedback, "sensor traffic"},
	}
	s.loops = []ControlLoop{
		{
			ID: "CL-1",
			Description: "Autonomous control of the vehicle among non-AV " +
				"drivers: sensing, recognition, planning, actuation, and the " +
				"resulting motion observed by (and influencing) other drivers.",
			Path: []ComponentID{
				CompEnvironment, CompSensors, CompRecognition, CompPlanner,
				CompFollower, CompActuators, CompMechanical,
			},
		},
		{
			ID: "CL-2",
			Description: "Safety-driver supervision: takeover requests flow " +
				"up, engage/disengage and manual control flow down.",
			Path: []ComponentID{CompDriver, CompPlanner, CompFollower, CompActuators, CompMechanical},
		},
		{
			ID: "CL-3",
			Description: "Interaction with non-AV drivers through vehicle " +
				"signals and observed motion.",
			Path: []ComponentID{CompMechanical, CompNonAVDriver, CompEnvironment, CompSensors, CompRecognition, CompPlanner, CompFollower, CompActuators},
		},
	}
	return s
}

// Component returns the named component.
func (s *Structure) Component(id ComponentID) (Component, error) {
	c, ok := s.components[id]
	if !ok {
		return Component{}, fmt.Errorf("stpa: unknown component %q", id)
	}
	return c, nil
}

// Components returns all components in insertion order.
func (s *Structure) Components() []Component {
	out := make([]Component, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.components[id])
	}
	return out
}

// Edges returns a copy of the edge list.
func (s *Structure) Edges() []Edge {
	out := make([]Edge, len(s.edges))
	copy(out, s.edges)
	return out
}

// Loops returns a copy of the control loops.
func (s *Structure) Loops() []ControlLoop {
	out := make([]ControlLoop, len(s.loops))
	copy(out, s.loops)
	return out
}

// LoopsContaining returns the loops whose path includes id.
func (s *Structure) LoopsContaining(id ComponentID) []ControlLoop {
	var out []ControlLoop
	for _, l := range s.loops {
		for _, c := range l.Path {
			if c == id {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// Validate checks structural invariants: every edge endpoint exists; every
// loop path visits existing components and every consecutive pair (and the
// closing pair) is connected by an edge in either direction.
func (s *Structure) Validate() error {
	for _, e := range s.edges {
		if _, ok := s.components[e.From]; !ok {
			return fmt.Errorf("stpa: edge from unknown component %q", e.From)
		}
		if _, ok := s.components[e.To]; !ok {
			return fmt.Errorf("stpa: edge to unknown component %q", e.To)
		}
	}
	connected := func(a, b ComponentID) bool {
		for _, e := range s.edges {
			if (e.From == a && e.To == b) || (e.From == b && e.To == a) {
				return true
			}
		}
		return false
	}
	for _, l := range s.loops {
		if len(l.Path) < 2 {
			return fmt.Errorf("stpa: loop %s has fewer than 2 components", l.ID)
		}
		for i, id := range l.Path {
			if _, ok := s.components[id]; !ok {
				return fmt.Errorf("stpa: loop %s references unknown component %q", l.ID, id)
			}
			next := l.Path[(i+1)%len(l.Path)]
			if !connected(id, next) {
				return fmt.Errorf("stpa: loop %s: no edge between %q and %q", l.ID, id, next)
			}
		}
	}
	return nil
}

// TagLocus maps a fault tag onto the component where the inadequate control
// originates.
func TagLocus(t ontology.Tag) (ComponentID, error) {
	switch t {
	case ontology.TagEnvironment:
		return CompEnvironment, nil
	case ontology.TagComputerSystem, ontology.TagSoftware, ontology.TagHangCrash:
		return CompPlanner, nil // the compute platform hosting the ADS stack
	case ontology.TagRecognitionSystem:
		return CompRecognition, nil
	case ontology.TagPlanner, ontology.TagIncorrectBehaviorPrediction, ontology.TagDesignBug:
		return CompPlanner, nil
	case ontology.TagSensor:
		return CompSensors, nil
	case ontology.TagNetwork:
		return CompNetwork, nil
	case ontology.TagAVControllerSystem, ontology.TagAVControllerML:
		return CompFollower, nil
	default:
		return "", errors.New("stpa: tag has no locus (Unknown-T)")
	}
}

// UCAType classifies an unsafe control action in STPA's four canonical
// forms.
type UCAType int

// Unsafe control action types.
const (
	// UCANotProvided: a required control action is not given.
	UCANotProvided UCAType = iota + 1
	// UCAProvidedUnsafe: a control action is given but causes a hazard.
	UCAProvidedUnsafe
	// UCAWrongTiming: the action is too early or too late.
	UCAWrongTiming
	// UCAStoppedTooSoon: the action is stopped too soon or applied too
	// long.
	UCAStoppedTooSoon
)

// String implements fmt.Stringer.
func (u UCAType) String() string {
	switch u {
	case UCANotProvided:
		return "not provided"
	case UCAProvidedUnsafe:
		return "provided but unsafe"
	case UCAWrongTiming:
		return "wrong timing"
	case UCAStoppedTooSoon:
		return "stopped too soon"
	default:
		return fmt.Sprintf("UCAType(%d)", int(u))
	}
}

// CausalFactor is one candidate explanation of a disengagement/accident:
// a component, the control loop it corrupts, the UCA form, and a mechanism
// description.
type CausalFactor struct {
	Component ComponentID
	Loop      string
	UCA       UCAType
	Mechanism string
}

// CausalAnalysis walks the structure to enumerate the causal factors
// consistent with a fault tag: the locus component, every loop through it,
// and the UCA forms the paper's case studies associate with that fault
// class.
func (s *Structure) CausalAnalysis(t ontology.Tag) ([]CausalFactor, error) {
	locus, err := TagLocus(t)
	if err != nil {
		return nil, err
	}
	loops := s.LoopsContaining(locus)
	if len(loops) == 0 {
		return nil, fmt.Errorf("stpa: no control loop passes through %q", locus)
	}
	ucas := ucaFormsFor(t)
	out := make([]CausalFactor, 0, len(loops)*len(ucas))
	for _, l := range loops {
		for _, u := range ucas {
			out = append(out, CausalFactor{
				Component: locus,
				Loop:      l.ID,
				UCA:       u,
				Mechanism: mechanismFor(t, u),
			})
		}
	}
	return out, nil
}

// ucaFormsFor maps fault classes to the UCA forms they produce.
func ucaFormsFor(t ontology.Tag) []UCAType {
	switch ontology.CategoryOf(t) {
	case ontology.CategoryMLDesign:
		// The case studies show ML faults as unsafe or untimely actions:
		// yielding without stopping, creeping that confuses other drivers.
		return []UCAType{UCAProvidedUnsafe, UCAWrongTiming}
	case ontology.CategorySystem:
		// System faults suppress or truncate control actions: hangs,
		// watchdog resets, unresponsive controllers.
		return []UCAType{UCANotProvided, UCAStoppedTooSoon}
	default:
		return nil
	}
}

// mechanismFor renders a human-readable mechanism sentence.
func mechanismFor(t ontology.Tag, u UCAType) string {
	return fmt.Sprintf("%s fault (%s): control action %s",
		t, ontology.CategoryOf(t), u)
}
