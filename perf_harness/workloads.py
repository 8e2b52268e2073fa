"""Workload definitions: the sizes of the world, the base model, meta-training,
evaluation and the CLI phase for each named workload.

The world's facts, labels and pretrain set come from `WorldConfig` with the
run's seed; `records_per_fact` only adds edit records, it changes neither the
pretrain set nor the train/test fact split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    hidden_dims: tuple[int, ...]
    pretrain_epochs: int
    pretrain_batch: int
    records_per_fact: int
    k: int  # edits per group, in meta-training and in every timed edit
    groups_per_step: int  # TrainConfig.batch_size
    meta_steps: int
    eval_every: int
    val_facts: int  # held-out train facts; at least k so a group has k facts
    val_records_per_fact: int
    ft_records_per_fact: int  # test records per test fact edited by FT and FT+KL
    cli_calls: int  # `gradedit edit` calls per round, one group of k each
    check_groups: int  # sampled groups per editor for the output checks
    # Whether the trained editor must beat the identity-init editor's
    # val_loss. Not at k=25, where meta-training raises the held-out loss on
    # every meta-training seed and setting tried (see CHANGES.md, FOUND), nor
    # in the tiny smoke-test world, which is too small for it.
    check_val_beats_untrained: bool = True
    world: tuple[tuple[str, int], ...] = ()  # WorldConfig overrides

    @property
    def edits_per_step(self) -> int:
        return self.groups_per_step * self.k


WORKLOADS: dict[str, Workload] = {
    # The acceptance pipeline's regime: tiny calls, per-call overhead.
    "narrow_k1": Workload(
        name="narrow_k1",
        hidden_dims=(128,),
        pretrain_epochs=40,
        pretrain_batch=32,
        records_per_fact=16,
        k=1,
        groups_per_step=10,
        meta_steps=100,
        eval_every=25,
        val_facts=8,
        val_records_per_fact=8,
        ft_records_per_fact=16,
        cli_calls=20,
        check_groups=32,
    ),
    # Many rows per call; 40 records per test fact give 102 groups of 25.
    "narrow_k25": Workload(
        name="narrow_k25",
        hidden_dims=(128,),
        pretrain_epochs=40,
        pretrain_batch=32,
        records_per_fact=40,
        k=25,
        groups_per_step=2,
        meta_steps=50,
        eval_every=25,
        val_facts=25,
        val_records_per_fact=8,
        ft_records_per_fact=16,
        cli_calls=20,
        check_groups=12,
        check_val_beats_untrained=False,
    ),
    # Dense (n, m) work: two 512-wide hidden layers.
    "wide_k1": Workload(
        name="wide_k1",
        hidden_dims=(512, 512),
        pretrain_epochs=4,
        pretrain_batch=64,
        records_per_fact=4,
        k=1,
        groups_per_step=4,
        meta_steps=30,
        eval_every=10,
        val_facts=8,
        val_records_per_fact=4,
        ft_records_per_fact=2,
        cli_calls=3,
        check_groups=6,
    ),
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of `w` for the benchmark's own smoke tests: a
    16x2-fact world, a model an eighth as wide, a few meta-steps, k <= 3."""
    k = min(w.k, 3)
    return replace(
        w,
        hidden_dims=tuple(max(16, h // 8) for h in w.hidden_dims),
        pretrain_epochs=15,
        records_per_fact=4,
        k=k,
        groups_per_step=2,
        meta_steps=40,
        eval_every=10,
        val_facts=max(4, k),
        val_records_per_fact=2,
        ft_records_per_fact=2,
        cli_calls=2,
        check_groups=3,
        check_val_beats_untrained=False,
        world=(
            ("num_entities", 16),
            ("num_relations", 2),
            ("num_classes", 8),
            ("feature_dim", 24),
            ("pretrain_per_fact", 20),
        ),
    )
