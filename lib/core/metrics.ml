type t = { m_label : string; m_results : Experiment.result list }

let of_results ~label results = { m_label = label; m_results = results }

let of_matrix (m : Figures.matrix) =
  let label =
    Printf.sprintf "%s matrix, interactive sleep %gs"
      m.Figures.mx_machine.Machine.m_name
      (float_of_int m.Figures.mx_sleep /. 1e9)
  in
  of_results ~label (Figures.matrix_results m)
