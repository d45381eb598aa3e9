"""Fig. 2 regeneration: the implementation ↔ PSM block mapping.

Renders the paper's two block diagrams from a transformed PSM: the
implementation side (Input-Device / Code-Execution / Output-Device
between the m/c and i/o variables) and the model side (the
Definition-3 automata), with the component correspondences that
Fig. 2's dashed arrows depict.
"""

from __future__ import annotations

from repro.core.psm import PSM

__all__ = ["render_blocks"]


def render_blocks(psm: PSM) -> str:
    """ASCII Fig. 2 for a concrete PSM."""
    inputs = ", ".join(psm.pim.input_channels())
    outputs = ", ".join(psm.pim.output_channels())
    io_in = ", ".join(psm.io_name(ch)
                      for ch in psm.pim.input_channels())
    io_out = ", ".join(psm.io_name(ch)
                       for ch in psm.pim.output_channels())

    impl = [
        "(a) Implementation",
        "",
        f"   m: {inputs}",
        "        │ mc-boundary",
        "   ┌────▼─────────┐   ┌──────────────┐   ┌──────────────┐",
        "   │ Input-Device │ i │   Code       │ o │ Output-Device│",
        "   │              ├──▶│  Execution   ├──▶│              │",
        "   └──────────────┘   │  Code(PIM)   │   └──────┬───────┘",
        "                      └──────────────┘          │",
        f"   i: {io_in}",
        f"   o: {io_out}",
        "        │ mc-boundary",
        f"   c: {outputs}",
    ]

    mapping = [
        "(b) Platform-Specific Model (PSM)      block ⇄ automaton",
        "",
    ]
    role_to_block = {
        "MIO": "Code(PIM)",
        "EXEIO": "Code Execution",
        "ENVMC": "Real Environment",
    }
    for role, name in psm.components():
        if role.startswith("IFMI"):
            block = "Input-Device"
        elif role.startswith("IFOC"):
            block = "Output-Device"
        else:
            block = role_to_block.get(role, role)
        mapping.append(f"   {block:<18} ⇄ {name}")

    composition = " ‖ ".join(name for _, name in psm.components())
    mapping += ["", f"   PSM = {composition}"]
    return "\n".join(impl + [""] + mapping)
