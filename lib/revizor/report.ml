let render_table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = Option.value (List.nth_opt row c) ~default:"" in
           cell ^ String.make (max 0 (w - String.length cell)) ' ')
         widths)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)

let t3_outcome_to_string = function
  | Experiments.Detected { label; test_cases } ->
      Printf.sprintf "V (%s, %d tcs)" label test_cases
  | Experiments.Not_detected { test_cases } -> Printf.sprintf "x (%d tcs)" test_cases
  | Experiments.Skipped -> "x*"
  | Experiments.Gadget_demo { label } -> Printf.sprintf "V (%s, gadget)" label

let table3 cells =
  let contracts = List.map Contract.name Contract.standard_ladder in
  let by_target = Hashtbl.create 8 in
  List.iter
    (fun (c : Experiments.t3_cell) ->
      let key = c.Experiments.target.Target.name in
      Hashtbl.replace by_target key
        (c :: (try Hashtbl.find by_target key with Not_found -> [])))
    cells;
  let rows =
    List.filter_map
      (fun (t : Target.t) ->
        match Hashtbl.find_opt by_target t.Target.name with
        | None -> None
        | Some cs ->
            let cs = List.rev cs in
            Some
              (t.Target.name
               :: List.concat_map
                    (fun (c : Experiments.t3_cell) ->
                      [ t3_outcome_to_string c.Experiments.outcome;
                        "paper: " ^ c.Experiments.paper ])
                    cs))
      Target.all
  in
  let header =
    "Target"
    :: List.concat_map (fun c -> [ c; "(paper)" ]) contracts
  in
  render_table ~header rows

let t4_cell_to_string (c : Experiments.t4_cell) =
  let runs = List.length c.Experiments.test_cases in
  if runs = 0 then "-"
  else
    let median, censored = Experiments.t4_median c in
    Printf.sprintf "%s%s tcs [%d/%d]"
      (if censored then ">" else "")
      (if Float.is_integer median then Printf.sprintf "%.0f" median
       else Printf.sprintf "%.1f" median)
      (List.length (List.filter Option.is_some c.Experiments.test_cases))
      runs

let table4 cells =
  let rows_of = [ "None"; "V4"; "V1" ] and cols_of = [ "V4"; "V1"; "MDS"; "LVI" ] in
  let lookup row column =
    List.find_map
      (function
        | Some (c : Experiments.t4_cell)
          when c.Experiments.row = row && c.Experiments.column = column ->
            Some c
        | Some _ | None -> None)
      cells
  in
  let rows =
    List.map
      (fun row ->
        ("permitted: " ^ row)
        :: List.map
             (fun column ->
               match lookup row column with
               | None -> "N/A"
               | Some c -> t4_cell_to_string c)
             cols_of)
      rows_of
  in
  render_table ~header:("Contract" :: List.map (fun c -> c ^ "-type") cols_of) rows
  ^ "\nCell: median test cases to the first violation over all runs, a miss \
     counted as the budget\n(\">\": a miss enters the median, so it is a lower \
     bound) [runs that detected/runs]."

let table5 rows =
  render_table
    ~header:[ "Gadget"; "Ref"; "Found"; "Mean inputs"; "Median"; "Min"; "Max" ]
    (List.map
       (fun (r : Experiments.t5_row) ->
         [
           r.Experiments.gadget.Gadgets.name;
           r.Experiments.gadget.Gadgets.reference;
           Printf.sprintf "%d/%d" r.Experiments.found r.Experiments.runs;
           Printf.sprintf "%.1f" r.Experiments.mean_inputs;
           string_of_int r.Experiments.median_inputs;
           string_of_int r.Experiments.min_inputs;
           string_of_int r.Experiments.max_inputs;
         ])
       rows)

let store_eviction results =
  render_table ~header:[ "CPU"; "CT-COND(noSpecStore)"; "Label" ]
    (List.map
       (fun (r : Experiments.store_eviction_result) ->
         [
           r.Experiments.cpu_name;
           (if r.Experiments.violated then "VIOLATED" else "compliant");
           Option.value r.Experiments.label ~default:"-";
         ])
       results)

let sensitivity results =
  render_table ~header:[ "Gadget"; "Contract"; "Result" ]
    (List.map
       (fun (g, c, v) -> [ g; c; (if v then "VIOLATED" else "compliant") ])
       results)

let throughput (t : Experiments.throughput) =
  Printf.sprintf
    "%d test cases, %d inputs in %.1fs -> %.0f test cases/hour" t.Experiments.test_cases
    t.Experiments.inputs t.Experiments.seconds t.Experiments.cases_per_hour

let ablation (a : Experiments.ablation) =
  Printf.sprintf "%s\n  with:    %s\n  without: %s\n  => %s" a.Experiments.name
    a.Experiments.with_feature a.Experiments.without_feature
    a.Experiments.conclusion

let entropy_sweep rows =
  render_table ~header:[ "Entropy bits"; "Input effectiveness" ]
    (List.map
       (fun (e, f) -> [ string_of_int e; Printf.sprintf "%.1f%%" (100. *. f) ])
       rows)
