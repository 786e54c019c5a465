(** Pure partitioned baselines: every job pinned to one machine — the
    comparison points whose capacity loss the paper's model is designed
    to recover (experiment F2). *)

val greedy_unrelated : Ptime.t array array -> (int array * int) option
(** Earliest-completion list scheduling on unrelated machines, jobs in
    decreasing order of minimum time.  [times.(job).(machine)]; returns
    [(job → machine, makespan)], or [None] if some job fits nowhere.
    Run on {!Instance.singleton_times}, its makespan is a horizon at
    which the (IP-3) relaxation is feasible, so [Hs_core.Ilp] ends the
    Theorem V.2 horizon search there. *)

val lpt_identical : m:int -> lengths:int array -> int array * int
(** Longest-processing-time list scheduling on identical machines (the
    classic 4/3-approximation). *)

val to_assignment : Instance.t -> int array -> Assignment.t option
(** Lift a machine placement to singleton masks; [None] if a machine
    lacks a singleton set. *)
