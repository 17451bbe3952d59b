let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      then c
      else '_')
    name

let to_c ?(function_name = "xentry_classify") (t : Tree.t) =
  let buf = Buffer.create 2048 in
  let nf = Array.length t.Tree.feature_names in
  Buffer.add_string buf
    (Printf.sprintf
       "/* Generated from a trained Xentry VM-transition detection tree.\n\
       \ * Features (index order): %s.\n\
       \ * Returns the class label (0 = correct execution, 1 = incorrect).\n\
       \ */\n"
       (String.concat ", " (Array.to_list t.Tree.feature_names)));
  Buffer.add_string buf
    (Printf.sprintf "int %s(const long long f[%d])\n{\n" (sanitize function_name)
       nf);
  let rec emit indent node =
    let pad = String.make indent ' ' in
    match node with
    | Tree.Leaf { label; _ } ->
        Buffer.add_string buf (Printf.sprintf "%sreturn %d;\n" pad label)
    | Tree.Split { feature; threshold; low; high } ->
        (* Counter values are integers, so [v <= t] for a midpoint
           threshold t is [v <= floor t] in integer arithmetic. *)
        Buffer.add_string buf
          (Printf.sprintf "%sif (f[%d] <= %LdLL) { /* %s */\n" pad feature
             (Int64.of_float (floor threshold))
             t.Tree.feature_names.(feature));
        emit (indent + 4) low;
        Buffer.add_string buf (Printf.sprintf "%s} else {\n" pad);
        emit (indent + 4) high;
        Buffer.add_string buf (Printf.sprintf "%s}\n" pad)
  in
  emit 4 t.Tree.root;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
