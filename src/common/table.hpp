/**
 * @file
 * Text table and CSV emission for benchmark output.
 *
 * Every bench binary prints a human-readable aligned table mirroring
 * the paper's table/figure rows (Table), and its figure curves as CSV
 * so plots can be regenerated (SeriesSet).
 */
#ifndef ROG_COMMON_TABLE_HPP
#define ROG_COMMON_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace rog {

/** An aligned text table with a fixed column header. */
class Table
{
  public:
    /** Construct with a title and column names. */
    Table(std::string title, std::vector<std::string> columns);

    /** Append a row of preformatted cells. @pre cells match columns */
    void addRow(std::vector<std::string> cells);

    /** Format a double with the given precision (helper for rows). */
    static std::string num(double v, int precision = 3);

    /** Render as an aligned, boxed text table. */
    void printText(std::ostream &os) const;

    const std::string &title() const { return title_; }
    std::size_t rows() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * A named series of (x, y) points — one curve in a paper figure.
 * Rendered as long-form CSV: series,x,y.
 */
class SeriesSet
{
  public:
    /** Construct with a title and the x / y axis names. */
    SeriesSet(std::string title, std::string x_name, std::string y_name);

    /** Append a point to the named series. */
    void add(const std::string &series, double x, double y);

    /** Render long-form CSV with a "# <title>" prefix. */
    void printCsv(std::ostream &os) const;

    /**
     * Render a compact text summary: for each series, the y value at a
     * few evenly spaced x positions (first/quarter/half/threequarter/
     * last sample), so the curve shape is visible in a terminal.
     */
    void printSummary(std::ostream &os) const;

  private:
    struct Point { double x; double y; };
    struct Series { std::string name; std::vector<Point> pts; };

    Series *find(const std::string &name);

    std::string title_;
    std::string x_name_;
    std::string y_name_;
    std::vector<Series> series_;
};

} // namespace rog

#endif // ROG_COMMON_TABLE_HPP
