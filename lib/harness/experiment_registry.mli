(** The one list of named experiments, read by both [bench/main.exe] and
    [mesa_cli bench]. *)

type run = ?jobs:int -> unit -> Experiments.outcome

val all : (string * run) list
(** The paper's eight tables and figures in paper order, then the
    ablation, the two design-space sweeps and the refinement study. *)

val paper : (string * run) list
(** The paper's own tables and figures: the first eight entries of
    {!all}. *)

val find : string -> run option
