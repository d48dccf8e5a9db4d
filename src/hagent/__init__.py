"""Toolkit for human-agentic BPMN workflows.

Parses and serializes the ``hagent`` BPMN extension, validates agentic
well-formedness, executes workflows under scripted scenario policies,
renders the extension notation to SVG, and exports the extension schema.
"""

from hagent.model import (
    AgentProfile,
    AgenticGatewayInfo,
    AgenticMessageFlowInfo,
    AgenticRegionInfo,
    AgenticTaskInfo,
    Annotation,
    Association,
    CollaborationMode,
    CollaborationRegion,
    DataObject,
    EndEvent,
    Gateway,
    GatewayDirection,
    GatewayKind,
    Group,
    Lane,
    MergeStrategy,
    MessageFlow,
    MessageFlowDirection,
    Pool,
    ProcessModel,
    ReflectionKind,
    ReflectionMode,
    SequenceFlow,
    StartEvent,
    SubProcess,
    Task,
    TrustScore,
    analyze_regions,
    find_merge_for,
    mk_trust_score,
    region_roles,
)
from hagent.xmlio import (
    Diagnostic,
    ParseResult,
    export_extension_schema,
    parse_model,
    serialize_model,
)
from hagent.validate import render_diagnostics, validate_model
from hagent.simulate import (
    CandidateOutput,
    LaneScript,
    ScenarioPolicy,
    ScriptedBehavior,
    Trace,
    apply_merge_strategy,
    execute_region,
    format_trace,
    load_scenario,
    propagate_trust,
    run_reflection,
    run_simulation,
)
from hagent.render import render_svg

__version__ = "0.1.0"
