(** Algorithm 1 (VM1Opt): the metaheuristic outer loop.

    For each input parameter set u of the queue U, iterate until the
    normalised objective improvement drops below theta:
    DistOpt with perturbation and no flipping, then DistOpt with flipping
    only, then shift the window grid so cells stuck at the previous
    iteration's window boundaries become optimisable. *)

type config = {
  sequence : Params.step list;
  mode : Scp_solver.mode;
  max_inner_iters : int;  (** safety bound on the while loop *)
  parallel : bool;        (** distribute window batches over domains *)
  candidate_cost : (site:int -> row:int -> float) option;
  (** static per-candidate penalty (the congestion-aware extension) *)
}

val default_config : config

type iteration = {
  step_index : int;       (** which u in U *)
  objective : float;      (** after the iteration *)
  delta : float;          (** normalised improvement *)
  moves : int;
}

type report = {
  initial_objective : float;
  final_objective : float;
  iterations : iteration list;
  runtime_s : float;
}

(** [run ?config params p] optimises in place and reports the trajectory.
    Window sizes in the sequence are given in micrometres and converted
    to sites/rows against the placement's technology. When
    [Obs.enabled], sets the [distopt.minor_words_per_window] gauge to
    the {!Dist_opt.stats.minor_words} of every DistOpt pass of the run
    divided by their windows. *)
val run : ?config:config -> Params.t -> Place.Placement.t -> report
