"""Planning layer: PDDL-subset domains, problem assembly, typed grounding."""
