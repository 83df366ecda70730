let figure_rows m ~what =
  let figure =
    match List.find_opt (fun f -> f.Figures.name = what) Figures.figures with
    | Some f -> f
    | None ->
      invalid_arg (Printf.sprintf "Csv.figure_rows: unknown figure %S" what)
  in
  let series = figure.Figures.series in
  let header = "workload" :: List.map (fun s -> s.Figures.csv) series in
  let cell fli vli s = Printf.sprintf "%.9g" (s.Figures.value fli vli) in
  let rows =
    List.map
      (fun (name, fli, vli) -> name :: List.map (cell fli vli) series)
      (Figures.results m)
  in
  (header, rows)

let to_string m ~what =
  let header, rows = figure_rows m ~what in
  let buf = Buffer.create 4096 in
  let add_row cells =
    Buffer.add_string buf (String.concat "," cells);
    Buffer.add_char buf '\n'
  in
  add_row header;
  List.iter add_row rows;
  Buffer.contents buf

let save_all m ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      let what = f.Figures.name in
      Cbsp_util.Io.with_out_file (Filename.concat dir (what ^ ".csv"))
        (fun oc -> output_string oc (to_string m ~what)))
    Figures.figures
