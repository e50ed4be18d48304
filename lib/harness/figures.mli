(** Reproduction drivers: one per table/figure of the paper's
    evaluation (Section 5), plus design-choice ablations. Each returns
    the report blocks whose rows correspond to the paper's bars/series;
    EXPERIMENTS.md records the paper-reported values next to ours.

    [scale] scales every benchmark's input size (1.0 = the calibrated
    defaults); the sweep figures run on a fixed representative subset
    of applications to bound simulation time, as noted per figure.

    {b Thread safety}: drivers print nothing. They share only the
    mutex-guarded memo tables of prepared programs and of
    {!Experiment.run}, so distinct drivers may run from any domain;
    the caller prints the returned blocks in the order it wants. *)

type fig = {
  id : string;
  title : string;
  run : scale:float -> Report.t list;
}

val all : fig list
(** Every driver, in paper order. *)

val find : string -> fig option
