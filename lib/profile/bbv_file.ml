let write oc (iv : Interval.interval) =
  if Array.length iv.Interval.bbv = 0 && iv.Interval.insts > 0 then
    invalid_arg "Bbv_file.write: interval has no BBV";
  output_char oc 'T';
  Array.iteri
    (fun id count ->
      if count > 0.0 then Printf.fprintf oc ":%d:%.0f " (id + 1) count)
    iv.Interval.bbv;
  output_char oc '\n'
