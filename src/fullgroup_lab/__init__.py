"""Low-complexity subshifts, topological full groups as cocycle tables,
and random-walk entropy experiments."""

__version__ = "0.1.0"

import gc as _gc

# The imports below, numpy's among them, make objects that live as long as
# the process, and the collector would traverse them 36 times on the way
# (4-5 ms of a cold run), so they run with it off.  After them, freeze()
# and unfreeze() move every tracked object to the oldest generation, where
# surviving collections would have put it, and zero the young count, so
# the first young collection after re-enabling does not traverse them
# either (about 4 ms more).  The pair moves every object the process
# tracks, not only the imports' own: a program that imports the package
# part-way through has its young cyclic garbage of that moment freed only
# at the next full collection.  A caller's own state stands: a collector
# that was off stays off, and while objects are frozen the generations are
# left as they are.
_collecting = _gc.isenabled()
_gc.disable()
try:
    from .errors import (  # noqa: F401
        ConditionViolated,
        DomainError,
        EmptyAlphabet,
        FullgroupLabError,
        IncompleteTable,
        InsufficientData,
        InternalInvariantError,
        NotInvertible,
        PeriodicCollision,
        ResourceLimit,
        SpecMismatch,
        UnresolvableHole,
        ValidationError,
    )
    from .subshifts import (  # noqa: F401
        ExplicitSpec,
        FullShiftSpec,
        LanguageTable,
        SturmianSpec,
        SubshiftSpec,
        SubstitutionSpec,
        ToeplitzSpec,
        build_spec,
        fibonacci_spec,
        spec_to_dict,
        toeplitz_word,
    )
    from .points import (  # noqa: F401
        ExplicitPoint,
        MechanicalPoint,
        PeriodicPoint,
        Point,
        SubstitutionFixedPoint,
        ToeplitzPoint,
        canonical_point,
        find_cylinder_position,
        is_periodic_window,
    )
    from .cocycles import (  # noqa: F401
        CayleyBall,
        CocycleElement,
        GeneratorSet,
        ball,
        compose,
        element_from_dict,
        equals,
        evaluate,
        fibonacci_generators,
        from_table,
        identity,
        inverse,
        is_constant_on_cylinder,
    )
    from .walks import (  # noqa: F401
        ConvolutionCache,
        GroupDistribution,
        StepMeasure,
        WalkSample,
        cylinder_depth,
        default_depth_scale,
        entropy,
        entropy_envelope,
        folner_growth_bound,
        max_displacement_tail,
        measure_from_weights,
        mixture_entropy_check,
        pushforward_offsets,
        reflection_check,
        return_probability_suite,
        sample_orbit_walks,
        stable_set_report,
        supported_a_grid,
        total_variation,
        uniform_measure,
    )
    from .schreier import SchreierBall, build_ball  # noqa: F401
finally:
    if _collecting:
        if not _gc.get_freeze_count():
            _gc.freeze()
            _gc.unfreeze()
        _gc.enable()
