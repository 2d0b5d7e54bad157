type run = ?jobs:int -> unit -> Experiments.outcome

let paper : (string * run) list =
  [
    ("fig11", fun ?jobs () -> Experiments.fig11 ?jobs ());
    ("fig12", fun ?jobs () -> Experiments.fig12 ?jobs ());
    ("fig13", fun ?jobs () -> Experiments.fig13 ?jobs ());
    ("fig14", fun ?jobs () -> Experiments.fig14 ?jobs ());
    ("fig15", fun ?jobs () -> Experiments.fig15 ?jobs ());
    ("fig16", fun ?jobs () -> Experiments.fig16 ?jobs ());
    ("table1", Experiments.table1);
    ("table2", Experiments.table2);
  ]

let all : (string * run) list =
  paper
  @ [
      ("ablation", fun ?jobs () -> Ablation.experiment ?jobs ());
      ("dse", Dse.experiment);
      ("dse-guided", Dse.guided_experiment);
      ("refine", Refine.experiment);
    ]

let find name = List.assoc_opt name all
